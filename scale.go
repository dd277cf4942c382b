package jitgc

import (
	"fmt"
	"math/rand"
	"time"

	"jitgc/internal/ftl"
	"jitgc/internal/metrics"
	"jitgc/internal/nand"
)

// The scale experiment sweeps device capacity from the 256 MiB default to a
// 64 GiB device (16.8M pages) and reports, per size: the metadata footprint
// in bytes per logical page, the steady-state WAF of greedy GC under
// uniform random writes, the two analytic WAF references that bracket it
// (Frankie-style greedy bound below, Li/Lee/Lui-style mean-field random
// selection above), and the wall-clock cost per host write. Flat bytes/page
// across the 256× block-count sweep is the evidence that the metadata is
// linear in device size. ns/write is not flat, though no step of the write
// or GC path walks a per-block structure (wear statistics, the free-block
// pick and the victim tournament's update are O(1), the last in the mean):
// what grows — about ×7 from 512 to 131,072 blocks — is cache and TLB misses
// on the page maps and page-state bitmap, ~150 MB of them at 64 GiB.
//
// The grid drives the FTL directly rather than through the discrete-event
// simulator: the point is the FTL's own scaling, and a page-cache layer in
// front would only blur the WAF the analytic models predict. Payload
// integrity is disabled (the 8 B/page of tokens is exactly the plane the
// tentpole removes at scale) and opt.Ops is ignored — phase lengths derive
// from each device's capacity so every size reaches steady state.

// scaleFillFraction is the share of user capacity holding live data during
// the measured phase. 0.75 keeps effective OP large enough that the greedy
// and mean-field predictions separate cleanly (≈1.7 vs ≈2.0).
const scaleFillFraction = 0.75

// ScaleResult is one row of the scale grid.
type ScaleResult struct {
	Preset nand.ScalePreset
	// UserPages is the exposed logical capacity; LivePages the steady-state
	// live footprint (scaleFillFraction × UserPages).
	UserPages, LivePages int64
	// CompactMap reports 4-byte mapping entries (TotalPages < 2^31).
	CompactMap bool
	// MetaBytesPerPage is FTL MetadataBytes / UserPages.
	MetaBytesPerPage float64
	// WAF is the measured steady-state write amplification; GreedyWAF and
	// MeanFieldWAF the analytic bracket for the same geometry and fill.
	WAF, GreedyWAF, MeanFieldWAF float64
	// NsPerWrite is wall-clock host-write latency in the measured phase
	// (hardware-dependent; reported for flatness, not absolute value).
	NsPerWrite float64
}

// RunScalePreset drives one capacity preset to steady state and measures
// it. Deterministic for a fixed seed except for NsPerWrite.
func RunScalePreset(preset nand.ScalePreset, seed int64) (ScaleResult, error) {
	cfg := ftl.DefaultConfig()
	cfg.Geometry = preset.Geo
	cfg.DisableIntegrity = true
	f, err := ftl.New(cfg)
	if err != nil {
		return ScaleResult{}, fmt.Errorf("scale %s: %w", preset.Name, err)
	}
	user := f.UserPages()
	live := int64(scaleFillFraction * float64(user))
	rng := rand.New(rand.NewSource(seed))

	// Phase 1 — sequential fill to the live footprint.
	for lpn := int64(0); lpn < live; lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			return ScaleResult{}, fmt.Errorf("scale %s fill lpn %d: %w", preset.Name, lpn, err)
		}
	}
	// Phase 2 — mixing: uniform random overwrites until the valid-count
	// distribution forgets the sequential layout. One full pass over the
	// live set is not quite enough (the WAF transient overshoots while the
	// sequential-fill blocks drain); two passes land on the steady state.
	for i := int64(0); i < 2*live; i++ {
		if _, _, err := f.Write(rng.Int63n(live)); err != nil {
			return ScaleResult{}, fmt.Errorf("scale %s mix: %w", preset.Name, err)
		}
	}
	// Phase 3 — measured steady state.
	f.ResetStats()
	ops := live / 2
	start := time.Now()
	for i := int64(0); i < ops; i++ {
		if _, _, err := f.Write(rng.Int63n(live)); err != nil {
			return ScaleResult{}, fmt.Errorf("scale %s measure: %w", preset.Name, err)
		}
	}
	elapsed := time.Since(start)

	total := preset.Geo.TotalPages()
	return ScaleResult{
		Preset:           preset,
		UserPages:        user,
		LivePages:        live,
		CompactMap:       total < 1<<31,
		MetaBytesPerPage: float64(f.MetadataBytes()) / float64(user),
		WAF:              f.Stats().WAF(),
		GreedyWAF:        metrics.GreedyWAF(total, live),
		MeanFieldWAF:     metrics.MeanFieldWAF(total, live),
		NsPerWrite:       float64(elapsed.Nanoseconds()) / float64(ops),
	}, nil
}

// scaleExp renders the capacity grid. Cells fan out over opt.Workers; each
// cell is seeded independently so the table is worker-count independent
// (except the wall-clock column, which is why this experiment has no
// golden file).
func scaleExp(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	presets := nand.ScalePresets()
	rows, err := gridCells(opt, len(presets), func(i int) (ScaleResult, error) {
		return RunScalePreset(presets[i], opt.Seed+int64(i))
	})
	if err != nil {
		return nil, err
	}
	return []Table{scaleTable(rows)}, nil
}

// scaleTable renders the grid rows, flagging any cell whose measured WAF
// escapes the analytic bracket (which makes paperbench exit non-zero).
// Split from scaleExp so the rendering and bracket logic are testable
// without minutes of steady-state simulation.
func scaleTable(rows []ScaleResult) Table {
	t := Table{
		Title: "Scale grid: metadata footprint and steady-state WAF vs device capacity " +
			fmt.Sprintf("(greedy GC, uniform random writes over %.0f%% of user capacity)", 100*scaleFillFraction),
		Columns: []string{"size", "blocks", "pages", "user pages", "map", "meta B/page",
			"WAF", "greedy model", "mean-field model", "ns/write"},
	}
	for _, r := range rows {
		width := "int64"
		if r.CompactMap {
			width = "int32"
		}
		t.AddRow(r.Preset.Name,
			fmt.Sprintf("%d", r.Preset.Geo.TotalBlocks()),
			fmt.Sprintf("%d", r.Preset.Geo.TotalPages()),
			fmt.Sprintf("%d", r.UserPages),
			width,
			fmt.Sprintf("%.2f", r.MetaBytesPerPage),
			fmt.Sprintf("%.3f", r.WAF),
			fmt.Sprintf("%.3f", r.GreedyWAF),
			fmt.Sprintf("%.3f", r.MeanFieldWAF),
			fmt.Sprintf("%.0f", r.NsPerWrite))
		if r.WAF < r.GreedyWAF*0.95 || r.WAF > r.MeanFieldWAF*1.05 {
			t.AddNote("%s: WAF %.3f outside the analytic bracket [%.3f, %.3f]",
				r.Preset.Name, r.WAF, r.GreedyWAF, r.MeanFieldWAF)
		}
	}
	t.AddInfo("payload integrity disabled for this grid (tokens cost 8 B/page); "+
		"simulator runs past %d ops use the streaming latency recorder", StreamingLatencyThreshold)
	return t
}
