package jitgc

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
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
// It also checks the command lines they quote (checkCommandLines).
func TestDocsNamesExist(t *testing.T) {
	checkCommandLines(t)
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

// commandNames are the repository's commands, each a directory under cmd/.
var commandNames = []string{"paperbench", "jitgcsim", "tracegen", "jitgctrace"}

// checkCommandLines checks the command lines the docs quote: in an inline
// code span, after a `$ ` prompt in a fenced block, or in a `run` block's
// tag. A line that invokes one of commandNames (bare, by path or through
// `go run`) may pass only flags that command's main.go defines, and every
// id it passes to paperbench's -exp must be an experiment.
func checkCommandLines(t *testing.T) {
	t.Helper()
	flagDecl := regexp.MustCompile(`\b(?:flag|fs)\.\w+\((?:&\w+, )?"([\w.-]+)"`)
	defined := map[string]map[string]bool{}
	for _, cmd := range commandNames {
		defined[cmd] = map[string]bool{}
		for _, m := range flagDecl.FindAllStringSubmatch(readDoc(t, filepath.Join("cmd", cmd, "main.go")), -1) {
			defined[cmd][m[1]] = true
		}
	}
	experiments := map[string]bool{}
	for _, id := range ExperimentIDs() {
		experiments[id] = true
	}
	for _, doc := range docs {
		for _, line := range commandLines(readDoc(t, doc)) {
			cmd, args := invocation(line)
			if cmd == "" {
				continue
			}
			for i, arg := range args {
				arg = strings.Trim(arg, "[]")
				if len(arg) < 2 || arg[0] != '-' || !unicode.IsLetter(rune(strings.TrimLeft(arg, "-")[0])) {
					continue
				}
				name, value, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
				if !defined[cmd][name] {
					t.Errorf("%s quotes `%s`: %s defines no flag -%s", doc, line, cmd, name)
					continue
				}
				if cmd != "paperbench" || name != "exp" {
					continue
				}
				if !hasValue && i+1 < len(args) {
					value = args[i+1]
				}
				for _, id := range strings.Split(value, ",") {
					if !experiments[id] {
						t.Errorf("%s quotes `%s`: %q is not an experiment id", doc, line, id)
					}
				}
			}
		}
	}
}

// commandLines returns every inline code span of text, every line of a
// fenced block that follows a `$ ` prompt, and the command of every `run`
// block's tag.
func commandLines(text string) []string {
	var lines []string
	for _, m := range backtickSpan.FindAllStringSubmatch(text, -1) {
		lines = append(lines, m[1])
	}
	for _, b := range fencedBlocks(text) {
		if cmd, ok := strings.CutPrefix(b.tag, "run "); ok {
			lines = append(lines, cmd)
		}
		for _, l := range b.lines {
			if cmd, ok := strings.CutPrefix(l, "$ "); ok {
				lines = append(lines, cmd)
			}
		}
	}
	return lines
}

// invocation splits a command line into the command it runs — one of
// commandNames, named bare, by path, or through `go run` — and the
// arguments up to the first shell operator or comment. cmd is "" when the
// line runs none of them.
func invocation(line string) (cmd string, args []string) {
	fields := strings.Fields(line)
	if len(fields) >= 3 && fields[0] == "go" && fields[1] == "run" {
		fields = fields[2:]
	}
	if len(fields) == 0 || !slices.Contains(commandNames, path.Base(fields[0])) {
		return "", nil
	}
	for _, f := range fields[1:] {
		if strings.HasPrefix(f, "#") || strings.ContainsAny(f[:1], "|<>;&") {
			break
		}
		args = append(args, f)
	}
	return path.Base(fields[0]), args
}

// fencedBlock is one fenced code block of a markdown document: its opening
// line's tag (the info string after the backticks), the line number of that
// opening line, and the lines between the fences.
type fencedBlock struct {
	tag   string
	line  int
	lines []string
}

// fencedBlocks returns text's fenced code blocks in order.
func fencedBlocks(text string) []fencedBlock {
	var blocks []fencedBlock
	var open *fencedBlock
	for i, l := range strings.Split(text, "\n") {
		switch {
		case !strings.HasPrefix(l, "```"):
			if open != nil {
				open.lines = append(open.lines, l)
			}
		case open == nil:
			open = &fencedBlock{tag: strings.TrimSpace(l[3:]), line: i + 1}
		default:
			blocks = append(blocks, *open)
			open = nil
		}
	}
	return blocks
}

// verdictSection is the one EXPERIMENTS.md section a markdown table may sit
// in.
const verdictSection = "## Reproduction verdict"

// TestDocsQuoteGoldens holds every output block EXPERIMENTS.md quotes to
// what the program renders. Each fenced block is tagged:
//
//   - "golden <id>": an excerpt of testdata/golden/<id>.txt, whose lines,
//     right-trimmed, occur consecutively in the golden;
//   - "run <paperbench command>": output no golden holds (another seed, or
//     the scale grid, which has no golden). The block starts with a table's
//     title, header and rule lines, which must be that table's in the
//     experiment's golden (for scale, scaleTable's rendering): the same
//     title, the same column names, and a rule of one dash run per column
//     under the block's own header. Its rows are the quoted run's.
//
// No block is untagged, and the only markdown table is the verdict
// section's. After `go test -run TestExperimentGoldens -update .` moves a
// golden, this test names each block to re-quote.
func TestDocsQuoteGoldens(t *testing.T) {
	const doc = "EXPERIMENTS.md"
	text := readDoc(t, doc)
	golden := func(id string) []string {
		if id == "scale" {
			tb := scaleTable(nil)
			return trimmedLines(tb.String())
		}
		b, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
		if err != nil {
			return nil
		}
		return trimmedLines(string(b))
	}
	for _, b := range fencedBlocks(text) {
		kind, arg, _ := strings.Cut(b.tag, " ")
		lines := trimmedLines(strings.Join(b.lines, "\n"))
		switch kind {
		case "golden":
			g := golden(arg)
			if g == nil || arg == "scale" {
				t.Errorf("%s:%d: block tagged %q: no golden %s", doc, b.line, b.tag, arg)
			} else if len(lines) == 0 || !containsRun(g, lines) {
				t.Errorf("%s:%d: block tagged %q is not an excerpt of testdata/golden/%s.txt; re-quote it", doc, b.line, b.tag, arg)
			}
		case "run":
			cmd, args := invocation(arg)
			id := ""
			for i, a := range args {
				if a == "-exp" && i+1 < len(args) {
					id = args[i+1]
				}
			}
			g := golden(id)
			if cmd != "paperbench" || g == nil {
				t.Errorf("%s:%d: block tagged %q does not run paperbench on one experiment that has a golden or is scale", doc, b.line, b.tag)
			} else if err := sameTableHead(g, lines); err != nil {
				t.Errorf("%s:%d: block tagged %q: %v", doc, b.line, b.tag, err)
			}
		default:
			t.Errorf("%s:%d: fenced block tagged %q; want \"golden <id>\" or \"run <paperbench command>\"", doc, b.line, b.tag)
		}
	}
	section, fenced, prev := "", false, ""
	for i, l := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(l, "```"):
			fenced = !fenced
		case fenced:
		case strings.HasPrefix(l, "## "):
			section = l
		case strings.HasPrefix(l, "|") && !strings.HasPrefix(prev, "|") && section != verdictSection:
			t.Errorf("%s:%d: markdown table outside %q; quote program output in a tagged block", doc, i+1, verdictSection)
		}
		prev = l
	}
}

// trimmedLines splits text into lines with trailing white space cut,
// dropping the empty line after a final newline.
func trimmedLines(text string) []string {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	return lines
}

// containsRun reports whether want occurs in lines as consecutive lines.
func containsRun(lines, want []string) bool {
	for i := 0; i+len(want) <= len(lines); i++ {
		if slices.Equal(lines[i:i+len(want)], want) {
			return true
		}
	}
	return false
}

// cellSep separates the cells of a rendered table row.
var cellSep = regexp.MustCompile(`  +`)

// sameTableHead checks that block starts with the title, header and rule of
// one of the tables rendered in golden: the title line equal, the header's
// column names equal, and the block's rule one dash run per column, each
// starting where the block's header puts that column.
func sameTableHead(golden, block []string) error {
	if len(block) < 3 {
		return fmt.Errorf("want a table's title, header and rule, got %d lines", len(block))
	}
	i := slices.Index(golden, block[0])
	if i < 0 || i+2 >= len(golden) {
		return fmt.Errorf("title %q names no table of the golden", block[0])
	}
	want, got := cellSep.Split(golden[i+1], -1), cellSep.Split(block[1], -1)
	if !slices.Equal(got, want) {
		return fmt.Errorf("columns %q, the golden's table has %q", got, want)
	}
	starts := cellSep.FindAllStringIndex(block[1], -1)
	rule := cellSep.Split(block[2], -1)
	if len(rule) != len(got) {
		return fmt.Errorf("rule %q has %d columns, header %d", block[2], len(rule), len(got))
	}
	for c, r := range rule {
		if strings.Trim(r, "-") != "" {
			return fmt.Errorf("rule %q is not dashes", block[2])
		}
		if c > 0 && !strings.HasPrefix(block[2][starts[c-1][1]:], r) {
			return fmt.Errorf("rule %q does not line up with header %q", block[2], block[1])
		}
	}
	return nil
}
