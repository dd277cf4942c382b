package jitgc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docs are the top-level documents whose names the tests below check.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// backtickSpan matches one inline code span.
var backtickSpan = regexp.MustCompile("`([^`\n]+)`")

func readDoc(t *testing.T, name string) string {
	t.Helper()
	text, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestDocsPathsExist checks that every repository path the top-level docs
// quote in backticks — anything under cmd/, internal/, examples/, testdata/
// or ci/ — exists, so a deleted or moved package cannot leave the docs
// pointing at nothing. Globs and elisions (`*`, `…`, `...`) are skipped.
func TestDocsPathsExist(t *testing.T) {
	repoPath := regexp.MustCompile(`^(cmd|internal|examples|testdata|ci)/`)
	for _, doc := range docs {
		for _, m := range backtickSpan.FindAllStringSubmatch(readDoc(t, doc), -1) {
			for _, tok := range strings.Fields(m[1]) {
				path := strings.TrimRight(strings.TrimPrefix(tok, "./"), ".,;:)")
				if !repoPath.MatchString(path) || strings.ContainsAny(path, "*…") ||
					strings.Contains(path, "...") {
					continue
				}
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s quotes `%s`, which does not exist", doc, tok)
				}
			}
		}
	}
}

// TestDocsNamesExist checks the three other kinds of name the docs cite:
// every Test…, Benchmark… or Fuzz… function they name is declared in some
// _test.go file of the repository (a name ending in an elision, such as
// TestPaperFig4..., matches as a prefix); every `make <target>` in
// backticks is a Makefile target; and every "DESIGN.md §N" cited in the
// docs or in a Go comment names an existing "## N." heading of DESIGN.md.
func TestDocsNamesExist(t *testing.T) {
	funcs, goSources := testFuncsAndSources(t)

	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*(?:\.\.\.|…)?`)
	makeCall := regexp.MustCompile(`^make ([a-z][\w-]*)`)
	targets := makeTargets(t)
	for _, doc := range docs {
		text := readDoc(t, doc)
		for _, name := range testName.FindAllString(text, -1) {
			prefix := strings.TrimSuffix(strings.TrimSuffix(name, "..."), "…")
			if !declared(funcs, prefix, prefix != name) {
				t.Errorf("%s names %s, which no _test.go file declares", doc, name)
			}
		}
		for _, m := range backtickSpan.FindAllStringSubmatch(text, -1) {
			if c := makeCall.FindStringSubmatch(m[1]); c != nil && !targets[c[1]] {
				t.Errorf("%s quotes `%s`, but the Makefile has no target %q", doc, m[1], c[1])
			}
		}
	}

	sections := map[int]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
		n, _ := strconv.Atoi(m[1])
		sections[n] = true
	}
	cite := regexp.MustCompile(`DESIGN\.md ((?:§\d+(?:[–-]\d+)?(?:, )?)+)`)
	number := regexp.MustCompile(`(\d+)(?:[–-](\d+))?`)
	sources := goSources
	for _, doc := range docs {
		sources = append(sources, source{doc, readDoc(t, doc)})
	}
	for _, src := range sources {
		for _, c := range cite.FindAllStringSubmatch(src.text, -1) {
			for _, r := range number.FindAllStringSubmatch(c[1], -1) {
				lo, _ := strconv.Atoi(r[1])
				hi := lo
				if r[2] != "" {
					hi, _ = strconv.Atoi(r[2])
				}
				for n := lo; n <= hi; n++ {
					if !sections[n] {
						t.Errorf("%s cites DESIGN.md §%d, which has no heading \"## %d.\"", src.name, n, n)
					}
				}
			}
		}
	}
}

// source is a file's name and text.
type source struct{ name, text string }

// testFuncsAndSources walks the repository once and returns the names of
// the Test, Benchmark and Fuzz functions its _test.go files declare, and
// every Go file in walk (lexical) order.
func testFuncsAndSources(t *testing.T) (map[string]bool, []source) {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	funcs, sources := map[string]bool{}, []source(nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sources = append(sources, source{path, string(text)})
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range decl.FindAllStringSubmatch(string(text), -1) {
				funcs[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs, sources
}

// declared reports whether name is a declared function, or with prefix set
// the prefix of one.
func declared(funcs map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return funcs[name]
	}
	for f := range funcs {
		if strings.HasPrefix(f, name) {
			return true
		}
	}
	return false
}

// makeTargets returns the targets the Makefile defines.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][\w-]*):`).FindAllStringSubmatch(readDoc(t, "Makefile"), -1) {
		targets[m[1]] = true
	}
	return targets
}
