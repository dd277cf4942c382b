package jitgc

import (
	"math"
	"strings"
	"testing"

	"jitgc/internal/array"
	"jitgc/internal/ftl"
	"jitgc/internal/nand"
)

// TestTrimPointInsideFrankieBracket is the committed cross-validation from
// the issue: at every swept TRIM intensity the measured steady-state WAF
// must fall inside Frankie et al.'s analytic bracket — the greedy curve at
// the TRIM-reduced live footprint from below, the Li/Lee/Lui-style
// mean-field fixed point at the same footprint from above (with the same
// 5% slack the untrimmed scale experiment allows its bracket).
func TestTrimPointInsideFrankieBracket(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state sweep needs ~5 device passes per intensity; skipped in -short")
	}
	preset, err := nand.PresetByName("256MiB")
	if err != nil {
		t.Fatal(err)
	}
	prevWAF := 0.0
	for i, q := range trimIntensities {
		r, err := runSteady(preset, trimFillFraction, q, 1)
		if err != nil {
			t.Fatalf("q=%.2f: %v", q, err)
		}
		if r.WAF < r.GreedyWAF*0.95 || r.WAF > r.MeanFieldWAF*1.05 {
			t.Errorf("q=%.2f: WAF %.3f outside Frankie bracket [%.3f, %.3f]",
				q, r.WAF, r.GreedyWAF, r.MeanFieldWAF)
		}
		// The paper-level claim: TRIM collapses WAF monotonically.
		if i > 0 && r.WAF > prevWAF {
			t.Errorf("q=%.2f: WAF rose to %.3f from %.3f at the previous intensity",
				q, r.WAF, prevWAF)
		}
		prevWAF = r.WAF
		// The models see the (1-q)·ws pages the device must preserve, and
		// the steering must actually have held the trimmed fraction: the
		// mapped footprint matches that within one percent.
		want := int64(math.Round((1 - q) * float64(r.WorkingSetPages)))
		if r.LivePages != want {
			t.Errorf("q=%.2f: models evaluated at %d live pages, want %d", q, r.LivePages, want)
		}
		if diff := r.MappedPages - want; diff > want/100 || diff < -want/100 {
			t.Errorf("q=%.2f: mapped %d pages, steering target %d", q, r.MappedPages, want)
		}
	}
}

func TestRunSteadyRejectsBadIntensity(t *testing.T) {
	preset, err := nand.PresetByName("256MiB")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := runSteady(preset, trimFillFraction, q, 1); err == nil {
			t.Errorf("intensity %v accepted", q)
		}
	}
}

// TestTrimProfileRunEndToEnd checks the full wiring: Options.HostProfile
// routes generation to the TRIM-rich profiles, the simulator forwards
// discards to the FTL and the TRIM-OP policy, and the results surface the
// trimmed and live footprints.
func TestTrimProfileRunEndToEnd(t *testing.T) {
	opt := Options{Seed: 1, Ops: 3000, HostProfile: "churn", TrimRate: 0.30}
	res, err := Run("churn", TrimOP(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "TRIM-OP" {
		t.Errorf("policy = %q, want TRIM-OP", res.Policy)
	}
	if res.TrimmedPages == 0 {
		t.Error("churn profile at q=0.30 produced no device TRIMs")
	}
	if res.MappedPages <= 0 {
		t.Errorf("MappedPages = %d, want positive live footprint", res.MappedPages)
	}
	total := ftl.DefaultConfig().Geometry.TotalPages()
	if res.MappedPages >= total {
		t.Errorf("MappedPages = %d, beyond device total %d", res.MappedPages, total)
	}

	// An unknown profile must fail loudly, not fall back to a benchmark.
	opt.HostProfile = "zfs"
	if _, err := Run("churn", TrimOP(), opt); err == nil {
		t.Error("unknown host profile accepted")
	}
}

// TestRunArrayHonoursHostProfile checks that a host profile replaces the
// named benchmark on an array as it does on one device: the churn profile
// discards, YCSB never does.
func TestRunArrayHonoursHostProfile(t *testing.T) {
	res, err := RunArray("YCSB", JIT(), array.Config{Devices: 2},
		Options{HostProfile: "churn", TrimRate: 0.25, Ops: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Array.TrimmedPages == 0 {
		t.Error("churn profile on a 2-device array produced no device TRIMs")
	}
}

// TestTrimGridTableShapes pins the grid renderer against hand-built cells,
// including the degenerate no-erase case.
func TestTrimGridTableShapes(t *testing.T) {
	cells := []trimCell{
		{profile: "churn", q: 0.15, res: Results{
			Policy: "A-BGC", WAF: 1.5, IOPS: 100, HostPrograms: 1000,
			Erases: 10, TrimmedPages: 50, MappedPages: 1000,
		}},
		{profile: "log", q: 0, res: Results{
			Policy: "JIT-GC", WAF: 1, IOPS: 200, HostPrograms: 500,
		}},
	}
	tb := trimGridTable(cells)
	s := tb.String()
	// 1000 of the default device's 65,536 pages mapped: effective OP 64.536.
	for _, want := range []string{"churn", "0.15", "A-BGC", "100.0", "64.536", "log", "JIT-GC", "n/a"} {
		if !strings.Contains(s, want) {
			t.Errorf("grid table missing %q:\n%s", want, s)
		}
	}
}

// TestTrimValidationTableFlagsEscapes pins the bracket note: a row outside
// the Frankie bracket must warn (and so fail paperbench), a row inside
// must not.
func TestTrimValidationTableFlagsEscapes(t *testing.T) {
	inside := SteadyResult{Q: 0.15, WAF: 1.6, GreedyWAF: 1.5, MeanFieldWAF: 1.75}
	outside := SteadyResult{Q: 0.30, WAF: 2.4, GreedyWAF: 1.1, MeanFieldWAF: 1.4}
	tb := trimValidationTable([]SteadyResult{inside, outside})
	s := tb.String()
	if !strings.Contains(s, "q=0.30") || len(tb.Notes) != 1 ||
		tb.Notes[0] != "q=0.30: WAF 2.400 outside the Frankie bracket [1.100, 1.400]" {
		t.Errorf("escaped row not flagged (notes %v):\n%s", tb.Notes, s)
	}
	if strings.Contains(strings.Join(tb.Notes, "\n"), "q=0.15") {
		t.Errorf("in-bracket row flagged: %v", tb.Notes)
	}
}
