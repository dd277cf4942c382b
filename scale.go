package jitgc

import (
	"fmt"
	"math"
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
// what grows several-fold from 512 to 131,072 blocks is cache and TLB misses
// on the page maps and page-state bitmap, ~143 MB of them at 64 GiB.
//
// The grid drives the FTL directly rather than through the discrete-event
// simulator: the point is the FTL's own scaling, and a page-cache layer in
// front would only blur the WAF the analytic models predict. Payload
// integrity is disabled (its tokens cost 8 B/page) and opt.Ops is ignored —
// phase lengths derive from each device's capacity so every size reaches
// steady state. The trim experiment's validation sweep runs the same
// steady-state runner with a steered trimmed fraction.

// scaleFillFraction is the share of user capacity holding live data during
// the measured phase. 0.75 keeps effective OP large enough that the greedy
// and mean-field predictions separate cleanly (1.672 vs 1.881).
const scaleFillFraction = 0.75

// SteadyResult is one row of a steady-state sweep: a scale-grid cell
// (Q = 0) or a point of the trim experiment's validation sweep.
type SteadyResult struct {
	Preset nand.ScalePreset
	// Q is the steered trimmed fraction of the working set.
	Q float64
	// UserPages is the exposed logical capacity; WorkingSetPages the
	// footprint the operations cover; LivePages the (1-Q)·WorkingSetPages
	// the analytic models see; MappedPages those mapped at the end.
	UserPages, WorkingSetPages, LivePages, MappedPages int64
	// EffectiveOP is the measured (TotalPages - MappedPages) / MappedPages.
	EffectiveOP float64
	// CompactMap reports 4-byte mapping entries (TotalPages < 2^31).
	CompactMap bool
	// MetaBytesPerPage is FTL MetadataBytes / UserPages.
	MetaBytesPerPage float64
	// WAF is the measured steady-state write amplification; GreedyWAF and
	// MeanFieldWAF the analytic bracket at LivePages.
	WAF, GreedyWAF, MeanFieldWAF float64
	// NsPerWrite is wall-clock time per measured operation, each a write at
	// Q = 0 (hardware-dependent; reported for flatness, not absolute value).
	NsPerWrite float64
}

// RunScalePreset drives one capacity preset to steady state and measures
// it. Deterministic for a fixed seed except for NsPerWrite.
func RunScalePreset(preset nand.ScalePreset, seed int64) (SteadyResult, error) {
	return runSteady(preset, scaleFillFraction, 0, seed)
}

// runSteady drives a bare FTL on preset's geometry to steady state with
// uniform random operations over fill × its user capacity, of which a
// steered fraction q is trimmed at any moment, and measures it against the
// greedy/mean-field bracket. Frankie et al.'s TRIM substitution is the one
// live-pages line: trimmed pages cost GC nothing, so the models see the
// (1-q)·ws pages the device must preserve.
func runSteady(preset nand.ScalePreset, fill, q float64, seed int64) (SteadyResult, error) {
	if !(q >= 0 && q < 1) {
		return SteadyResult{}, fmt.Errorf("%s: trimmed fraction %v outside [0,1)", preset.Name, q)
	}
	cfg := ftl.DefaultConfig()
	cfg.Geometry = preset.Geo
	cfg.DisableIntegrity = true
	f, err := ftl.New(cfg)
	if err != nil {
		return SteadyResult{}, fmt.Errorf("%s q=%.2f: %w", preset.Name, q, err)
	}
	user := f.UserPages()
	ws := int64(fill * float64(user))
	elapsed, err := steadyState(f, ws, q, seed)
	if err != nil {
		return SteadyResult{}, fmt.Errorf("%s q=%.2f %w", preset.Name, q, err)
	}

	total := preset.Geo.TotalPages()
	live := max(int64(math.Round((1-q)*float64(ws))), 1)
	mapped := f.MappedPages()
	effOP, _ := effectiveOP(total, mapped)
	return SteadyResult{
		Preset:           preset,
		Q:                q,
		UserPages:        user,
		WorkingSetPages:  ws,
		LivePages:        live,
		MappedPages:      mapped,
		EffectiveOP:      effOP,
		CompactMap:       total < 1<<31,
		MetaBytesPerPage: float64(f.MetadataBytes()) / float64(user),
		WAF:              f.Stats().WAF(),
		GreedyWAF:        metrics.GreedyWAF(total, live),
		MeanFieldWAF:     metrics.MeanFieldWAF(total, live),
		NsPerWrite:       float64(elapsed.Nanoseconds()) / float64(ws/2),
	}, nil
}

// effectiveOP returns the spare factor (total - mapped) / mapped a device
// of total physical pages enjoys with mapped live pages, and false when it
// is undefined (nothing mapped, or no spare).
func effectiveOP(total, mapped int64) (float64, bool) {
	if mapped <= 0 || total <= mapped {
		return 0, false
	}
	return float64(total-mapped) / float64(mapped), true
}

// noteEscape warns on t, under the row's label, when r's measured WAF
// escapes the named [greedy, mean-field] bracket by more than the 5%
// finite-size tolerance — which makes paperbench exit non-zero.
func noteEscape(t *Table, r SteadyResult, label, bracket string) {
	if r.WAF < r.GreedyWAF*0.95 || r.WAF > r.MeanFieldWAF*1.05 {
		t.AddNote("%s: WAF %.3f outside the %s bracket [%.3f, %.3f]",
			label, r.WAF, bracket, r.GreedyWAF, r.MeanFieldWAF)
	}
}

// steadyState drives f to steady state with uniform random operations over
// the working set [0, ws), a steered fraction q of it trimmed at any moment,
// and returns the wall time of a measured half pass. It fills the working
// set sequentially and mixes for two passes, until the valid-count
// distribution forgets the sequential layout — one pass is not quite enough:
// the WAF transient overshoots while the sequential-fill blocks drain — then
// resets the stats and measures ws/2 operations. At q = 0 every operation
// is an overwrite.
func steadyState(f *ftl.FTL, ws int64, q float64, seed int64) (time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	for lpn := int64(0); lpn < ws; lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			return 0, fmt.Errorf("fill lpn %d: %w", lpn, err)
		}
	}

	// The steering rule keeps exactly ~target pages trimmed while the
	// trimmed set itself churns: a trimmed page that is picked again is
	// written back, an untrimmed pick is trimmed while below target and
	// overwritten otherwise. At steady state the device sees uniform random
	// writes over the working set with a stationary trimmed fraction q —
	// the regime Frankie et al.'s substitution models.
	target := int64(q * float64(ws))
	var trimmed []bool // allocated only when something is to be trimmed
	if target > 0 {
		trimmed = make([]bool, ws)
	}
	var trimmedCount int64
	run := func(n int64) error {
		for i := int64(0); i < n; i++ {
			lpn := rng.Int63n(ws)
			var err error
			switch {
			case trimmedCount > 0 && trimmed[lpn]:
				trimmed[lpn] = false
				trimmedCount--
				_, _, err = f.Write(lpn)
			case trimmedCount < target:
				trimmed[lpn] = true
				trimmedCount++
				err = f.Trim(lpn)
			default:
				_, _, err = f.Write(lpn)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := run(2 * ws); err != nil {
		return 0, fmt.Errorf("mix: %w", err)
	}
	f.ResetStats()
	start := time.Now()
	if err := run(ws / 2); err != nil {
		return 0, fmt.Errorf("measure: %w", err)
	}
	return time.Since(start), nil
}

// scaleExp renders the capacity grid. Cells fan out over opt.Workers; each
// cell is seeded independently so the table is worker-count independent
// (except the wall-clock column, which is why this experiment has no
// golden file).
func scaleExp(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	presets := nand.ScalePresets()
	rows, err := gridCells(opt, len(presets), func(i int) (SteadyResult, error) {
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
func scaleTable(rows []SteadyResult) Table {
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
		noteEscape(&t, r, r.Preset.Name, "analytic")
	}
	t.AddInfo("payload integrity disabled for this grid (tokens cost 8 B/page)")
	return t
}
