package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"jitgc"
	"jitgc/internal/telemetry/binlog"
	"jitgc/internal/trace"
)

// TestMain lets the test binary stand in for the command: re-executed with
// "tracegen" as its first argument (go test only ever passes -test.* flags)
// it drops that argument and runs main(), so the tests see real exit codes
// and files.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "tracegen" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tracegen runs the command and fails the test on a non-zero exit.
func tracegen(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"tracegen"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("tracegen %v: %v: %s", args, err, stderr.String())
	}
}

// TestStreamIsTheOneRunSimulates: with the default working set, both output
// formats decode to exactly the requests jitgc.GenerateStream produces —
// the stream jitgc.Run simulates at the same benchmark, seed and ops. The
// text format stores times in whole microseconds, so its decode is held to
// the stream at that resolution; the binary format is exact.
func TestStreamIsTheOneRunSimulates(t *testing.T) {
	want, _, err := jitgc.GenerateStream("YCSB", jitgc.Options{Seed: 3, Ops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	text, bin := filepath.Join(dir, "ycsb.trace"), filepath.Join(dir, "ycsb.jgb")
	tracegen(t, "-bench", "YCSB", "-seed", "3", "-ops", "2000", "-out", text)
	tracegen(t, "-bench", "YCSB", "-seed", "3", "-ops", "2000", "-binary", "-out", bin)

	for _, tc := range []struct {
		path   string
		decode func(*os.File) ([]trace.Request, error)
		want   []trace.Request
	}{
		{text, func(f *os.File) ([]trace.Request, error) { return trace.Decode(f) }, microseconds(want)},
		{bin, func(f *os.File) ([]trace.Request, error) { return binlog.DecodeRequests(f) }, want},
	} {
		f, err := os.Open(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: decoded %d requests that differ from GenerateStream's %d", tc.path, len(got), len(tc.want))
		}
	}
}

// microseconds returns reqs with every time truncated to whole
// microseconds, the text format's resolution.
func microseconds(reqs []trace.Request) []trace.Request {
	out := append([]trace.Request(nil), reqs...)
	for i := range out {
		out[i].Time = out[i].Time.Truncate(time.Microsecond)
	}
	return out
}
