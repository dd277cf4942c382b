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
	"jitgc/internal/telemetry/binlog"
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

// writeBinlog writes n time-ordered request events to path as a binlog
// stream, and returns the JSONL a JSONLSink writes for them.
func writeBinlog(t *testing.T, path string, n int) []byte {
	t.Helper()
	var bin, jsonl bytes.Buffer
	sink := telemetry.Tee(binlog.NewBinSink(&bin, binlog.Options{}), telemetry.NewJSONLSink(&jsonl))
	for i := 0; i < n; i++ {
		sink.Emit(telemetry.Event{
			Type: telemetry.EvRequest, T: time.Duration(i) * time.Microsecond,
			Kind: "W", LPN: int64(i * 7 % 30000), Pages: 1 + i%8, Latency: 2 * time.Microsecond,
		})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return jsonl.Bytes()
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, code := jitgctrace(t, args...)
	if code != 0 {
		t.Fatalf("jitgctrace %v: exit %d: %s", args, code, stderr)
	}
	return stdout
}

// TestConvertRoundTripAndInfo: events → binlog → convert gives the JSONL a
// JSONLSink wrote for the same events, byte for byte, and info reads the
// event and block counts of a stream that spans two default-sized blocks off
// its footer.
func TestConvertRoundTripAndInfo(t *testing.T) {
	dir := t.TempDir()
	bin, view := filepath.Join(dir, "a.jgb"), filepath.Join(dir, "a.jsonl")
	want := writeBinlog(t, bin, 5000)
	mustRun(t, "convert", "-o", view, bin)
	got, err := os.ReadFile(view)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("convert is not byte-identical to JSONLSink: %d B, want %d B", len(got), len(want))
	}
	info := mustRun(t, "info", bin)
	for _, line := range []string{"blocks    2\n", "events    5000\n"} {
		if !strings.Contains(info, line) {
			t.Errorf("info output lacks %q:\n%s", line, info)
		}
	}
}

// TestConvertRefusesJSONL: convert reads binlog only. A JSONL input exits 1
// with the reader's bad-magic error, and -o OUT is never created.
func TestConvertRefusesJSONL(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "out.jsonl")
	jsonl := writeBinlog(t, filepath.Join(dir, "a.jgb"), 10)
	if err := os.WriteFile(in, jsonl, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := jitgctrace(t, "convert", "-o", out, in)
	if code != 1 || !strings.Contains(stderr, "bad magic") {
		t.Errorf("exit %d, stderr %q; want exit 1 with the bad-magic error", code, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("output %s left behind (stat err %v)", out, err)
	}
}

// TestOutputThatIsAnInputIsRefused: the input is streamed, so an -o naming
// it — under any spelling — must exit 1 before creating (truncating) it.
func TestOutputThatIsAnInputIsRefused(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jgb")
	// 15 blocks: more than a reader buffers before the output is created,
	// so a truncated input cannot go unnoticed.
	writeBinlog(t, a, 60000)
	before, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	alias := filepath.Join(dir, "alias.jgb")
	if err := os.Symlink(a, alias); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{"convert", "-o", a, a},
		{"convert", "-o", a, alias},
	} {
		_, stderr, code := jitgctrace(t, args...)
		if code != 1 || !strings.Contains(stderr, "is also an input") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming the output as an input", args, code, stderr)
		}
		if after, err := os.ReadFile(a); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("%v: input modified (%d B → %d B, err %v)", args, len(before), len(after), err)
		}
	}
}
