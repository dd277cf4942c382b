package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"jitgc"
	"jitgc/internal/nand"
	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
)

// TestMain lets the test binary stand in for the command: re-executed with
// "jitgcsim" as its first argument (go test only ever passes -test.* flags)
// it drops that argument and runs main(), so the tests see real stdout and
// real files.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "jitgcsim" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// jitgcsim runs the command and returns its stdout, failing the test if it
// exits non-zero.
func jitgcsim(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"jitgcsim"}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("jitgcsim %v: %v\n%s", args, err, errb.String())
	}
	return out.String()
}

// writeTextTrace writes the stream `tracegen -bench bench -ops ops` writes.
func writeTextTrace(t *testing.T, path, bench string, ops int) {
	t.Helper()
	reqs, _, err := jitgc.GenerateStream(bench, jitgc.Options{Seed: 1, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineGoldens reproduces the committed timeline CSVs byte for byte:
// a single device, a text-trace replay, and a 2-device coordinated array
// (merged plus one file per device, and no other).
func TestTimelineGoldens(t *testing.T) {
	dir := t.TempDir()
	tio := filepath.Join(dir, "tiobench.trace")
	writeTextTrace(t, tio, "Tiobench", 4000)
	for _, c := range []struct {
		name  string
		args  []string
		files []string // suffixes of the CSVs the run writes
	}{
		{"ycsb_jit", []string{"-bench", "YCSB", "-policy", "JIT-GC", "-ops", "4000"}, []string{""}},
		{"tiobench_trace", []string{"-trace", tio, "-policy", "JIT-GC"}, []string{""}},
		{"array2_coordinated", []string{"-devices", "2", "-coord", "coordinated", "-ops", "4000"}, []string{"", ".dev0", ".dev1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			jitgcsim(t, append(c.args, "-timeline", filepath.Join(dir, c.name+".csv"))...)
			if extra, _ := filepath.Glob(filepath.Join(dir, c.name+".*.csv")); len(extra) != len(c.files)-1 {
				t.Errorf("run wrote per-device files %v, want %d", extra, len(c.files)-1)
			}
			for _, suffix := range c.files {
				file := c.name + suffix + ".csv"
				want, err := os.ReadFile(filepath.Join("testdata", file))
				if err != nil {
					t.Fatal(err)
				}
				if got, err := os.ReadFile(filepath.Join(dir, file)); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s differs from testdata (err %v):\n got: %s\nwant: %s", file, err, got, want)
				}
			}
		})
	}
}

// TestTenantsTimeline: -timeline records the multi-tenant engine's shared
// device like any other run.
func TestTenantsTimeline(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "tenants.csv")
	jitgcsim(t, "-tenants", "20", "-ops", "1000", "-timeline", csv)
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(data), "\n") - 1; rows < 2 {
		t.Errorf("tenant run's timeline holds %d samples:\n%s", rows, data)
	}
}

// TestUsageErrors: every bad flag combination exits 2 with its reason.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fault-rate", "2"}, {"-devices", "0"}, {"-spares", "1"},
		{"-trim-rate", "1"}, {"-host-profile", "churn", "-trim-rate", "NaN"},
		{"-host-profile", "churn", "-tenants", "5"},
		{"-tenants", "5", "-devices", "2"}, {"-devices", "2", "-trace", "x.trace"},
		{"-tenants", "-3"}, {"-tenants", "5", "-rate", "-1"}, {"-tenants", "5", "-rate", "NaN"},
		{"-ops", "0"}, {"-ops", "-5"},
		{"-devices", "2", "-coord", "bogus"}, {"-devices", "2", "-redundancy", "bogus"},
		{"-devices", "2", "-stripe", "0"}, {"-devices", "2", "-spares", "-1"},
		{"-tenants", "5", "-slo", "-1s"}, {"-tenants", "5", "-slo", "0"}, {"-tenants", "5", "-rate", "0"},
		{"-tenants", "5", "-arrival", "bogus"}, {"-host-profile", "bogus"}, {"-size", "3GiB"},
		{"-tenants", "5", "-ops", "3"}, {"-tenants", "7", "-ops", "100"},
	} {
		out, err := exec.Command(os.Args[0], append([]string{"jitgcsim"}, args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.HasPrefix(string(out), "jitgcsim: -") {
			t.Errorf("jitgcsim %v: %v, output %.80q; want exit 2 with the reason", args, err, out)
		}
	}
}

// firstFreeBytes returns free_bytes of a timeline CSV's first sample.
func firstFreeBytes(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s holds no sample", path)
	}
	free, err := strconv.ParseInt(strings.Split(lines[1], ",")[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return free
}

// TestTimelineKeepsSizePreset pins `-size P -timeline f.csv`, on one device
// and on an array: recording the timeline must leave the -size device in
// place, so the 1GiB preset's first sample shows more than twice the free
// space of the 256MiB default device's.
func TestTimelineKeepsSizePreset(t *testing.T) {
	preset, err := nand.PresetByName("4GiB")
	if err != nil {
		t.Fatal(err)
	}
	if cfg := presetConfig(preset); cfg.FTL.Geometry != preset.Geo || !cfg.FTL.DisableIntegrity {
		t.Fatalf("presetConfig(4GiB) = geometry %+v, DisableIntegrity %v; want the preset geometry without integrity",
			cfg.FTL.Geometry, cfg.FTL.DisableIntegrity)
	}

	csv := filepath.Join(t.TempDir(), "tl.csv")
	for _, devices := range []string{"1", "2"} {
		jitgcsim(t, "-devices", devices, "-ops", "500", "-timeline", csv)
		def := firstFreeBytes(t, csv)
		jitgcsim(t, "-size", "1GiB", "-devices", devices, "-ops", "500", "-timeline", csv)
		if free := firstFreeBytes(t, csv); free <= 2*def {
			t.Errorf("-devices %s: first sample has %d free bytes with -size 1GiB, %d without: the preset was dropped",
				devices, free, def)
		}
	}
}

// TestTraceReplayHonoursDeviceFlags: `-trace` replays on the device the
// flags describe: -size sets its geometry, -fault-rate and -fault-seed arm
// its fault model, and MSR addresses wrap at its capacity, not the default
// device's.
func TestTraceReplayHonoursDeviceFlags(t *testing.T) {
	dir := t.TempDir()
	tio := filepath.Join(dir, "tiobench.trace")
	writeTextTrace(t, tio, "Tiobench", 2000)
	csv := filepath.Join(dir, "tl.csv")
	replay := func(args ...string) string {
		return jitgcsim(t, append([]string{"-trace", tio, "-timeline", csv}, args...)...)
	}

	plain := replay()
	if free := firstFreeBytes(t, csv); free > 256<<20 {
		t.Fatalf("default device starts with %d free bytes", free)
	}
	replay("-size", "1GiB")
	if free := firstFreeBytes(t, csv); free <= 256<<20 {
		t.Errorf("-size 1GiB replay starts with %d free bytes: the preset was ignored", free)
	}

	seed1 := replay("-fault-rate", "0.001", "-fault-seed", "1")
	seed2 := replay("-fault-rate", "0.001", "-fault-seed", "2")
	if strings.Contains(plain, "injected faults") || !strings.Contains(seed1, "injected faults") {
		t.Errorf("-fault-rate ignored:\nwithout:\n%s\nwith:\n%s", plain, seed1)
	}
	if seed1 == seed2 {
		t.Errorf("-fault-seed ignored: seeds 1 and 2 print the same record\n%s", seed1)
	}

	// An MSR write 600 MiB into its volume lands unwrapped on a 1GiB device.
	msr := filepath.Join(dir, "msr.csv")
	if err := os.WriteFile(msr, []byte("128166372003061629,src1,0,Write,629145600,4096,1331\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	events := filepath.Join(dir, "events.jsonl")
	jitgcsim(t, "-trace", msr, "-msr", "-size", "1GiB", "-trace-events", events)
	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := telemetry.DecodeJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	var lpns []int64
	for _, ev := range evs {
		if ev.Type == telemetry.EvRequest {
			lpns = append(lpns, ev.LPN)
		}
	}
	if len(lpns) != 1 || lpns[0] != 629145600/4096 {
		t.Errorf("MSR write replayed at LPNs %v, want [%d]", lpns, 629145600/4096)
	}
}
