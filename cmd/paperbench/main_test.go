package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"jitgc"
	"jitgc/internal/telemetry/binlog"
)

// TestMain lets the test binary stand in for the command: re-executed with
// "paperbench" as its first argument (go test only ever passes -test.*
// flags) it drops that argument and runs main(), so the tests see real exit
// codes, stdout, stderr and files.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "paperbench" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// paperbench runs the command and returns its stdout, stderr and exit code.
func paperbench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"paperbench"}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("paperbench %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

func mustRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, code := paperbench(t, args...)
	if code != 0 {
		t.Fatalf("paperbench %v: exit %d: %s", args, code, stderr)
	}
	return stdout, stderr
}

// TestList: -list prints every registered experiment, id first, in
// presentation order.
func TestList(t *testing.T) {
	out, _ := mustRun(t, "-list")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	exps := jitgc.Experiments()
	if len(lines) != len(exps) {
		t.Fatalf("-list printed %d lines, want %d experiments:\n%s", len(lines), len(exps), out)
	}
	for i, e := range exps {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.ID || !strings.Contains(lines[i], e.Title) {
			t.Errorf("line %d = %q, want id %q and title %q", i, lines[i], e.ID, e.Title)
		}
	}
}

// TestUsageErrors: an unknown -exp id and -workers 0 exit 2 before running
// anything; the unknown id is named along with every valid one.
func TestUsageErrors(t *testing.T) {
	_, stderr, code := paperbench(t, "-exp", "fig4,nope")
	if code != 2 || !strings.Contains(stderr, `"nope"`) {
		t.Errorf("-exp fig4,nope: exit %d, stderr %q; want exit 2 naming the id", code, stderr)
	}
	for _, id := range jitgc.ExperimentIDs() {
		if !strings.Contains(stderr, id) {
			t.Errorf("usage error does not list valid id %q", id)
		}
	}
	if stdout, stderr, code := paperbench(t, "-workers", "0", "-exp", "fig4"); code != 2 || stdout != "" {
		t.Errorf("-workers 0: exit %d, stdout %q, stderr %q; want exit 2 and no output", code, stdout, stderr)
	}
}

// timing matches the wall-clock suffix of an experiment header, the one
// part of the output a golden cannot pin.
var timing = regexp.MustCompile(`(?m)^(=== .*) \([0-9.]+s\)$`)

// TestOutputMatchesGoldens: the command prints the worked-example
// experiments exactly as the committed goldens render them, apart from
// the timing in each header.
func TestOutputMatchesGoldens(t *testing.T) {
	out, _ := mustRun(t, "-exp", "fig4,fig6")
	var want []byte
	for _, id := range []string{"fig4", "fig6"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	if got := timing.ReplaceAllString(out, "$1"); got != string(want) {
		t.Errorf("output differs from the fig4 and fig6 goldens:\n got %q\nwant %q", got, want)
	}
}

// TestTraceEventsBinary: -trace-events-dir with -trace-events-binary writes
// one binlog stream per experiment, and each decodes to the event count the
// command reported.
func TestTraceEventsBinary(t *testing.T) {
	dir := t.TempDir()
	_, stderr := mustRun(t, "-exp", "evaluation,fig5", "-ops", "500", "-workers", "1",
		"-trace-events-dir", dir, "-trace-events-binary")
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("wrote %v, want evaluation.jgb and fig5.jgb", files)
	}
	total := 0
	for _, id := range []string{"evaluation", "fig5"} {
		f, err := os.Open(filepath.Join(dir, id+".jgb"))
		if err != nil {
			t.Fatal(err)
		}
		evs, err := binlog.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s.jgb: %v", id, err)
		}
		if line := fmt.Sprintf("trace-events: %s: %d events", id, len(evs)); !strings.Contains(stderr, line) {
			t.Errorf("%s.jgb holds %d events; stderr lacks %q:\n%s", id, len(evs), line, stderr)
		}
		total += len(evs)
	}
	if total == 0 {
		t.Error("no events traced")
	}
}
