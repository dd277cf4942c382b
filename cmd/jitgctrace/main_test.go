package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jitgc/internal/telemetry"
)

// TestMain lets the test binary stand in for the command: re-executed with a
// subcommand as its first argument (go test only ever passes -test.* flags)
// it runs main(), so the tests see real exit codes, stderr and files.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// jitgctrace runs the command and returns its stdout, stderr and exit code.
func jitgctrace(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("jitgctrace %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// writeJSONL writes n time-ordered request events starting at t0 as JSONL.
func writeJSONL(t *testing.T, path string, n int, t0 time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	for i := 0; i < n; i++ {
		sink.Emit(telemetry.Event{
			Type: telemetry.EvRequest, T: t0 + time.Duration(i)*time.Microsecond,
			Kind: "W", LPN: int64(i * 7 % 30000), Pages: 1 + i%8, Latency: 2 * time.Microsecond,
		})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, code := jitgctrace(t, args...)
	if code != 0 {
		t.Fatalf("jitgctrace %v: exit %d: %s", args, code, stderr)
	}
	return stdout
}

// TestConvertRoundTripAndInfo: JSONL → binlog → JSONL through the command is
// byte-identical, and info reads the event and block counts of a stream that
// spans two default-sized blocks off its footer.
func TestConvertRoundTripAndInfo(t *testing.T) {
	dir := t.TempDir()
	jsonl, bin, back := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "a.jgb"), filepath.Join(dir, "back.jsonl")
	want := writeJSONL(t, jsonl, 5000, 0)
	mustRun(t, "convert", "-o", bin, jsonl)
	mustRun(t, "convert", "-o", back, bin)
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("convert → convert is not byte-identical: %d B in, %d B back", len(want), len(got))
	}
	info := mustRun(t, "info", bin)
	for _, line := range []string{"blocks    2\n", "events    5000\n"} {
		if !strings.Contains(info, line) {
			t.Errorf("info output lacks %q:\n%s", line, info)
		}
	}
}

// TestOutputThatIsAnInputIsRefused: inputs are streamed, so an -o naming one
// of them — under any spelling — must exit 1 before creating (truncating) it.
func TestOutputThatIsAnInputIsRefused(t *testing.T) {
	dir := t.TempDir()
	aj, bj := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	a, b := filepath.Join(dir, "a.jgb"), filepath.Join(dir, "b.jgb")
	// 15 blocks: more than a reader buffers before the output is created,
	// so a truncated input cannot go unnoticed.
	writeJSONL(t, aj, 60000, 0)
	writeJSONL(t, bj, 100, time.Hour)
	mustRun(t, "convert", "-o", a, aj)
	mustRun(t, "convert", "-o", b, bj)
	before, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	alias := filepath.Join(dir, "alias.jgb")
	if err := os.Symlink(a, alias); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{"merge", "-o", a, a, b},
		{"merge", "-o", a, b, alias},
		{"convert", "-o", a, a},
	} {
		_, stderr, code := jitgctrace(t, args...)
		if code != 1 || !strings.Contains(stderr, "is also an input") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming the output as an input", args, code, stderr)
		}
		if after, err := os.ReadFile(a); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("%v: input modified (%d B → %d B, err %v)", args, len(before), len(after), err)
		}
	}

	merged := filepath.Join(dir, "m.jgb")
	mustRun(t, "merge", "-o", merged, a, b)
	if info := mustRun(t, "info", merged); !strings.Contains(info, "events    60100\n") {
		t.Errorf("merge to a fresh output lost events:\n%s", info)
	}
}
