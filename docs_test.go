package jitgc

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsPathsExist checks that every repository path the top-level docs
// quote in backticks — anything under cmd/, internal/, examples/, testdata/
// or ci/ — exists, so a deleted or moved package cannot leave the docs
// pointing at nothing. Globs and elisions (`*`, `…`, `...`) are skipped.
func TestDocsPathsExist(t *testing.T) {
	span := regexp.MustCompile("`([^`\n]+)`")
	repoPath := regexp.MustCompile(`^(cmd|internal|examples|testdata|ci)/`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(string(text), -1) {
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
