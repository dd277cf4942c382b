package jitgc

import (
	"fmt"
	"math"
	"math/rand"

	"jitgc/internal/ftl"
	"jitgc/internal/metrics"
	"jitgc/internal/nand"
)

// The scale experiment sweeps device capacity from the 256 MiB default to a
// 64 GiB device (16.8M pages) and reports, per size: the metadata footprint
// in bytes per logical page and the steady-state WAF of greedy GC under
// uniform random writes next to metrics.GreedyWAF, the fluid-limit model at
// the FTL's block size. Flat bytes/page across the 256× block-count sweep is
// the evidence that the metadata is linear in device size; per-write cost
// is measured by internal/ftl's BenchmarkSteadyStateWrite.
//
// The grid drives the FTL directly rather than through the discrete-event
// simulator: the point is the FTL's own scaling, and a page-cache layer in
// front would only blur the WAF the model predicts. Payload integrity is
// disabled (its tokens cost 8 B/page) and opt.Ops is ignored — phase
// lengths derive from each device's capacity so every size reaches steady
// state. The trim experiment's validation sweep runs the same steady-state
// runner with a steered trimmed fraction.

// scaleFillFraction is the share of user capacity holding live data during
// the measured phase.
const scaleFillFraction = 0.75

// steadyTolerance bounds a steady-state row's |WAF/model − 1|. The model is
// greedy's fluid limit; the FTL's finite block count and free-block reserve
// put its measured WAF between −1.3% and +2.3% of it (seeds 1–6 at 8, 32
// and 128 pages per block, seeds 1–4 over the trim sweep), while a FIFO
// victim order at 8 pages per block reads +17.5%.
const steadyTolerance = 0.03

// SteadyResult is one row of a steady-state sweep: a scale-grid cell
// (Q = 0) or a point of the trim experiment's validation sweep.
type SteadyResult struct {
	Preset nand.ScalePreset
	// Q is the steered trimmed fraction of the working set.
	Q float64
	// UserPages is the exposed logical capacity; WorkingSetPages the
	// footprint the operations cover; LivePages the (1-Q)·WorkingSetPages
	// the model sees; MappedPages those mapped at the end.
	UserPages, WorkingSetPages, LivePages, MappedPages int64
	// EffectiveOP is the measured (TotalPages - MappedPages) / MappedPages.
	EffectiveOP float64
	// MetaBytesPerPage is FTL MetadataBytes / UserPages.
	MetaBytesPerPage float64
	// WAF is the measured steady-state write amplification; GreedyWAF the
	// model at LivePages and the preset's block size.
	WAF, GreedyWAF float64
	// MeanFieldWAF is the model's large-block limit, GreedyWAF at 2^14
	// pages per block. No table shows it; it stays for the benchmark
	// harness's FTL accuracy probe, which reads WAF's position between it
	// and GreedyWAF.
	MeanFieldWAF float64
}

// RunScalePreset drives one capacity preset to steady state and measures
// it. Deterministic for a fixed seed.
func RunScalePreset(preset nand.ScalePreset, seed int64) (SteadyResult, error) {
	return runSteady(preset, scaleFillFraction, 0, seed)
}

// runSteady drives a bare FTL on preset's geometry to steady state with
// uniform random operations over fill × its user capacity, of which a
// steered fraction q is trimmed at any moment, and measures it against the
// greedy model. Frankie et al.'s TRIM substitution is the one live-pages
// line: trimmed pages cost GC nothing, so the model sees the (1-q)·ws pages
// the device must preserve.
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
	if err := steadyState(f, ws, q, seed); err != nil {
		return SteadyResult{}, fmt.Errorf("%s q=%.2f %w", preset.Name, q, err)
	}

	total, k := preset.Geo.TotalPages(), preset.Geo.PagesPerBlock
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
		MetaBytesPerPage: float64(f.MetadataBytes()) / float64(user),
		WAF:              f.Stats().WAF(),
		GreedyWAF:        metrics.GreedyWAF(total, live, k),
		MeanFieldWAF:     metrics.GreedyWAF(total, live, 1<<14),
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

// noteEscape warns on t, under the row's label, when r's measured WAF is
// further than steadyTolerance from the greedy model — which makes
// paperbench exit non-zero.
func noteEscape(t *Table, r SteadyResult, label string) {
	if dev := r.WAF/r.GreedyWAF - 1; math.Abs(dev) > steadyTolerance {
		t.AddNote("%s: WAF %.3f is %+.1f%% from the greedy model %.3f (tolerance ±%.0f%%)",
			label, r.WAF, 100*dev, r.GreedyWAF, 100*steadyTolerance)
	}
}

// steadyState drives f to steady state with uniform random operations over
// the working set [0, ws), a steered fraction q of it trimmed at any moment,
// so that f's stats cover a measured half pass. It fills the working set
// sequentially and mixes for two passes, until the valid-count
// distribution forgets the sequential layout — one pass is not quite enough:
// the WAF transient overshoots while the sequential-fill blocks drain — then
// resets the stats and measures ws/2 operations. At q = 0 every operation
// is an overwrite.
func steadyState(f *ftl.FTL, ws int64, q float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for lpn := int64(0); lpn < ws; lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			return fmt.Errorf("fill lpn %d: %w", lpn, err)
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
		return fmt.Errorf("mix: %w", err)
	}
	f.ResetStats()
	if err := run(ws / 2); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	return nil
}

// scaleExp renders the capacity grid. Cells fan out over opt.Workers; each
// cell is seeded independently so the table is worker-count independent.
// The experiment has no golden file: its 64 GiB cell is too slow for the
// test suite.
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
// strays from the greedy model (which makes paperbench exit non-zero).
// Split from scaleExp so the rendering and tolerance logic are testable
// without minutes of steady-state simulation.
func scaleTable(rows []SteadyResult) Table {
	t := Table{
		Title: "Scale grid: metadata footprint and steady-state WAF vs device capacity " +
			fmt.Sprintf("(greedy GC, uniform random writes over %.0f%% of user capacity)", 100*scaleFillFraction),
		Columns: []string{"size", "blocks", "pages", "user pages", "meta B/page",
			"WAF", "greedy model"},
	}
	for _, r := range rows {
		t.AddRow(r.Preset.Name,
			fmt.Sprintf("%d", r.Preset.Geo.TotalBlocks()),
			fmt.Sprintf("%d", r.Preset.Geo.TotalPages()),
			fmt.Sprintf("%d", r.UserPages),
			fmt.Sprintf("%.2f", r.MetaBytesPerPage),
			fmt.Sprintf("%.3f", r.WAF),
			fmt.Sprintf("%.3f", r.GreedyWAF))
		noteEscape(&t, r, r.Preset.Name)
	}
	t.AddInfo("payload integrity disabled for this grid (tokens cost 8 B/page)")
	return t
}
