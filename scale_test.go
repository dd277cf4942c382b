package jitgc

import (
	"fmt"
	"strings"
	"testing"

	"jitgc/internal/nand"
)

// TestScaleExperimentSmallPreset runs the smallest grid cell end to end and
// checks the properties the full grid demonstrates: the measured WAF is
// within steadyTolerance of the greedy model, and the metadata footprint
// stays within the bytes-per-page budget.
func TestScaleExperimentSmallPreset(t *testing.T) {
	preset, err := nand.PresetByName("256MiB")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScalePreset(preset, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Untrimmed, the model sees the whole working set, three quarters of
	// user capacity, and the device ends the run with all of it mapped.
	if want := int64(scaleFillFraction * float64(res.UserPages)); res.WorkingSetPages != want ||
		res.LivePages != want || res.MappedPages != want {
		t.Errorf("working set %d, live %d, mapped %d pages; want %d each",
			res.WorkingSetPages, res.LivePages, res.MappedPages, want)
	}
	// Budget: 4-byte L2P+P2L ≈ 8 B/page plus sub-byte state planes and
	// per-block metadata. 12 B/page is generous headroom; the old layout
	// (int64 maps + token plane + 1 B/page states) needed ≥ 25.
	if res.MetaBytesPerPage > 12 {
		t.Errorf("metadata footprint %.2f B/page exceeds the 12 B/page budget", res.MetaBytesPerPage)
	}
	checkSteadyWAF(t, res)
	// The benchmark harness's probe reads WAF's position between the model
	// and its large-block limit, so the limit must lie above the model.
	if res.MeanFieldWAF <= res.GreedyWAF {
		t.Errorf("large-block limit %.3f not above the 128-page model %.3f", res.MeanFieldWAF, res.GreedyWAF)
	}
}

// checkSteadyWAF fails t when the tables would flag r: its measured WAF is
// further than steadyTolerance from the greedy model.
func checkSteadyWAF(t *testing.T, r SteadyResult) {
	t.Helper()
	var tb Table
	noteEscape(&tb, r, fmt.Sprintf("%s q=%.2f", r.Preset.Name, r.Q))
	for _, n := range tb.Notes {
		t.Error(n)
	}
}

// TestSteadySmallBlocksMatchGreedyModel runs the steady-state runner on a
// 65,536-page device with 8 pages per block, where greedy's minimum-valid
// victim gains most over blind choices: the model reads 1.579 there and a
// FIFO victim order about 1.88, so this row tells them apart.
func TestSteadySmallBlocksMatchGreedyModel(t *testing.T) {
	preset := nand.ScalePreset{Name: "256MiB/8", Geo: nand.Geometry{
		Channels: 4, ChipsPerChannel: 1, BlocksPerChip: 2048, PagesPerBlock: 8, PageSize: 4096,
	}}
	res, err := runSteady(preset, scaleFillFraction, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("WAF %.4f, model %.4f", res.WAF, res.GreedyWAF)
	checkSteadyWAF(t, res)
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
	if res.MetaBytesPerPage > 12 {
		t.Errorf("metadata footprint %.2f B/page exceeds the 12 B/page budget", res.MetaBytesPerPage)
	}
	checkSteadyWAF(t, res)
}

// TestScaleTableRendering pins the grid rendering and the warning logic
// without running steady-state simulations: rows within steadyTolerance of
// the greedy model, on either side, render without notes; a row beyond it
// renders the warning that makes paperbench exit non-zero.
func TestScaleTableRendering(t *testing.T) {
	preset, err := nand.PresetByName("256MiB")
	if err != nil {
		t.Fatal(err)
	}
	good := SteadyResult{
		Preset: preset, UserPages: 61248, WorkingSetPages: 45936, LivePages: 45936,
		MetaBytesPerPage: 9.09, WAF: 1.88, GreedyWAF: 1.859, MeanFieldWAF: 1.881,
	}
	low := good
	low.WAF = 1.83
	tb := scaleTable([]SteadyResult{good, low})
	if len(tb.Rows) != 2 {
		t.Fatalf("rendered %d rows, want 2", len(tb.Rows))
	}
	if len(tb.Notes) != 0 {
		t.Errorf("rows within tolerance produced warnings: %v", tb.Notes)
	}
	if len(tb.Info) == 0 {
		t.Error("table is missing the bare-mode/streaming info note")
	}
	if out := tb.String(); !strings.Contains(out, "1.880") || !strings.Contains(out, "1.859") ||
		strings.Contains(out, "1.881") {
		t.Errorf("rendering should show WAF and the greedy model only:\n%s", out)
	}

	for _, waf := range []float64{1.859 * 1.04, 1.859 * 0.96} {
		bad := good
		bad.WAF = waf
		tb = scaleTable([]SteadyResult{bad})
		if len(tb.Notes) != 1 || !strings.Contains(tb.Notes[0], "256MiB: WAF") ||
			!strings.Contains(tb.Notes[0], "from the greedy model 1.859 (tolerance ±3%)") {
			t.Errorf("WAF %.3f not flagged: %v", waf, tb.Notes)
		}
	}
}
