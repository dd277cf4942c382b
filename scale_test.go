package jitgc

import (
	"strings"
	"testing"

	"jitgc/internal/nand"
)

// TestScaleExperimentSmallPreset runs the smallest grid cell end to end and
// checks the properties the full grid demonstrates: the measured WAF falls
// inside the analytic bracket, the compact mapping is in effect, and the
// metadata footprint stays within the bytes-per-page budget.
func TestScaleExperimentSmallPreset(t *testing.T) {
	preset, err := nand.PresetByName("256MiB")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScalePreset(preset, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CompactMap {
		t.Error("256 MiB preset did not use the compact (int32) mapping")
	}
	// Untrimmed, the models see the whole working set, three quarters of
	// user capacity, and the device ends the run with all of it mapped.
	if want := int64(scaleFillFraction * float64(res.UserPages)); res.WorkingSetPages != want ||
		res.LivePages != want || res.MappedPages != want {
		t.Errorf("working set %d, live %d, mapped %d pages; want %d each",
			res.WorkingSetPages, res.LivePages, res.MappedPages, want)
	}
	// Budget: compact L2P+P2L ≈ 8 B/page plus sub-byte state planes and
	// per-block metadata. 12 B/page is generous headroom; the old layout
	// (int64 maps + token plane + 1 B/page states) needed ≥ 25.
	if res.MetaBytesPerPage > 12 {
		t.Errorf("metadata footprint %.2f B/page exceeds the 12 B/page budget", res.MetaBytesPerPage)
	}
	if res.GreedyWAF >= res.MeanFieldWAF {
		t.Fatalf("analytic bracket inverted: greedy %.3f ≥ mean-field %.3f", res.GreedyWAF, res.MeanFieldWAF)
	}
	// The greedy simulation must land between the greedy lower reference
	// and the random-selection upper reference, with slack for finite-size
	// effects at 512 blocks.
	if res.WAF < res.GreedyWAF*0.95 || res.WAF > res.MeanFieldWAF*1.05 {
		t.Errorf("WAF %.3f outside analytic bracket [%.3f, %.3f]",
			res.WAF, res.GreedyWAF, res.MeanFieldWAF)
	}
}

// TestScaleExperimentMillionPages drives the 4 GiB preset (1,048,576 pages)
// through the scale harness — the ≥1M-page large-geometry configuration the
// metadata compaction exists for. Skipped in -short.
func TestScaleExperimentMillionPages(t *testing.T) {
	if testing.Short() {
		t.Skip("million-page steady-state run; skipped in -short")
	}
	preset, err := nand.PresetByName("4GiB")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScalePreset(preset, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := preset.Geo.TotalPages(); got < 1<<20 {
		t.Fatalf("preset has %d pages, want ≥ 1M", got)
	}
	if !res.CompactMap {
		t.Error("4 GiB preset did not use the compact (int32) mapping")
	}
	if res.MetaBytesPerPage > 12 {
		t.Errorf("metadata footprint %.2f B/page exceeds the 12 B/page budget", res.MetaBytesPerPage)
	}
	if res.WAF < res.GreedyWAF*0.95 || res.WAF > res.MeanFieldWAF*1.05 {
		t.Errorf("WAF %.3f outside analytic bracket [%.3f, %.3f]",
			res.WAF, res.GreedyWAF, res.MeanFieldWAF)
	}
}

// TestScaleTableRendering pins the grid rendering and the warning logic
// without running steady-state simulations: a row inside the analytic
// bracket renders without notes, a row outside it renders the warning
// that makes paperbench exit non-zero.
func TestScaleTableRendering(t *testing.T) {
	preset, err := nand.PresetByName("256MiB")
	if err != nil {
		t.Fatal(err)
	}
	good := SteadyResult{
		Preset: preset, UserPages: 61248, WorkingSetPages: 45936, LivePages: 45936, CompactMap: true,
		MetaBytesPerPage: 9.09, WAF: 1.88, GreedyWAF: 1.672, MeanFieldWAF: 1.881,
		NsPerWrite: 2500,
	}
	tb := scaleTable([]SteadyResult{good})
	if len(tb.Rows) != 1 {
		t.Fatalf("rendered %d rows, want 1", len(tb.Rows))
	}
	if len(tb.Notes) != 0 {
		t.Errorf("in-bracket row produced warnings: %v", tb.Notes)
	}
	if len(tb.Info) == 0 {
		t.Error("table is missing the bare-mode/streaming info note")
	}
	if out := tb.String(); !strings.Contains(out, "int32") || !strings.Contains(out, "1.880") {
		t.Errorf("rendering missing expected cells:\n%s", out)
	}

	bad := good
	bad.WAF = bad.MeanFieldWAF * 1.2
	tb = scaleTable([]SteadyResult{bad})
	if len(tb.Notes) != 1 || !strings.Contains(tb.Notes[0], "outside the analytic bracket") {
		t.Errorf("out-of-bracket row not flagged: %v", tb.Notes)
	}
}
