package jitgc

import (
	"fmt"

	"jitgc/internal/ftl"
	"jitgc/internal/metrics"
)

// The trim experiment answers the ROADMAP's last open question: does
// JIT-GC's verdict survive on hosts that actually discard? It has two
// parts. The validation sweep drives the FTL directly with a steered
// trimmed fraction and checks the measured steady-state WAF against
// Frankie et al.'s analytic WAF-vs-effective-OP curve — the oracle that
// says TRIM inflates effective over-provisioning and collapses WAF along
// the greedy/mean-field bracket evaluated at the reduced live footprint.
// The policy grid then runs the TRIM-rich host profiles (file churn with
// discard-on-unlink, and the SSDFS-style append-only log) through the
// full simulator at each TRIM intensity under A-BGC, TRIM-OP and JIT-GC,
// reporting WAF/IOPS/lifetime next to the measured effective OP and the
// greedy model evaluated at it.

// trimIntensities is the swept steady-state trimmed share q.
var trimIntensities = []float64{0, 0.15, 0.30, 0.45}

// trimFillFraction is the share of user capacity the validation sweep's
// working set covers. 0.85 keeps the untrimmed effective OP small enough
// (≈ 0.26 with the default 7% physical OP) that the WAF collapse across
// the q sweep spans a wide, clearly resolved range.
const trimFillFraction = 0.85

// TrimPointResult is one row of the validation sweep.
type TrimPointResult struct {
	// Q is the steered trimmed fraction of the working set.
	Q float64
	// WorkingSetPages is the sweep's footprint; MappedPages the live pages
	// actually mapped at the end of the measured phase.
	WorkingSetPages, MappedPages int64
	// EffectiveOP is the measured (TotalPages - MappedPages) / MappedPages.
	EffectiveOP float64
	// WAF is the measured steady-state write amplification; GreedyWAF and
	// MeanFieldWAF are Frankie et al.'s analytic bracket at intensity Q.
	WAF, GreedyWAF, MeanFieldWAF float64
}

// RunTrimPoint drives the default device to steady state with uniform
// random writes over a fixed working set of which a steered fraction q is
// trimmed at any moment, and measures the steady-state WAF. Like the scale
// sweep it bypasses the page cache — the point is the GC process the
// analytic curve models — and is deterministic for a fixed seed.
func RunTrimPoint(q float64, seed int64) (TrimPointResult, error) {
	if !(q >= 0 && q < 1) {
		return TrimPointResult{}, fmt.Errorf("trim: intensity %v outside [0,1)", q)
	}
	cfg := ftl.DefaultConfig()
	cfg.DisableIntegrity = true
	f, err := ftl.New(cfg)
	if err != nil {
		return TrimPointResult{}, fmt.Errorf("trim q=%.2f: %w", q, err)
	}
	ws := int64(trimFillFraction * float64(f.UserPages()))
	if _, err := steadyState(f, ws, q, seed); err != nil {
		return TrimPointResult{}, fmt.Errorf("trim q=%.2f %w", q, err)
	}

	total := cfg.Geometry.TotalPages()
	mapped := f.MappedPages()
	lo, hi := metrics.FrankieWAFBracket(total, ws, q)
	res := TrimPointResult{
		Q:               q,
		WorkingSetPages: ws,
		MappedPages:     mapped,
		WAF:             f.Stats().WAF(),
		GreedyWAF:       lo,
		MeanFieldWAF:    hi,
	}
	if mapped > 0 && total > mapped {
		res.EffectiveOP = float64(total-mapped) / float64(mapped)
	}
	return res, nil
}

// trimValidationTable renders the sweep rows, flagging any cell whose
// measured WAF escapes the Frankie bracket (which makes paperbench exit
// non-zero). Split from trimExp so the bracket logic is testable without
// re-running the steady-state sweep.
func trimValidationTable(rows []TrimPointResult) Table {
	t := Table{
		Title: "TRIM validation sweep: measured steady-state WAF vs Frankie effective-OP curve " +
			fmt.Sprintf("(uniform random writes over %.0f%% of user capacity, steered trimmed fraction)",
				100*trimFillFraction),
		Columns: []string{"q", "ws pages", "mapped", "eff. OP",
			"WAF", "Frankie greedy", "mean-field"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.2f", r.Q),
			fmt.Sprintf("%d", r.WorkingSetPages),
			fmt.Sprintf("%d", r.MappedPages),
			fmt.Sprintf("%.3f", r.EffectiveOP),
			fmt.Sprintf("%.3f", r.WAF),
			fmt.Sprintf("%.3f", r.GreedyWAF),
			fmt.Sprintf("%.3f", r.MeanFieldWAF))
		if r.WAF < r.GreedyWAF*0.95 || r.WAF > r.MeanFieldWAF*1.05 {
			t.AddNote("q=%.2f: WAF %.3f outside the Frankie bracket [%.3f, %.3f]",
				r.Q, r.WAF, r.GreedyWAF, r.MeanFieldWAF)
		}
	}
	t.AddInfo("Frankie et al.: a trimmed fraction q shrinks the live footprint to (1-q)·ws, " +
		"inflating effective OP; the greedy/mean-field bracket is evaluated at that footprint")
	return t
}

// trimGridProfiles and trimGridPolicies span the policy grid.
var (
	trimGridProfiles = []string{"churn", "log"}
	trimGridPolicies = []PolicySpec{Aggressive(), TrimOP(), JIT()}
)

// trimCell is one simulator run of the policy grid.
type trimCell struct {
	profile string
	q       float64
	res     Results
}

// trimExp runs the validation sweep and the host-profile × TRIM-intensity
// × policy grid. Every cell is seeded independently and written into a
// pre-indexed slot, so the report is byte-identical for any worker count.
func trimExp(opt Options) ([]Table, error) {
	opt = opt.withDefaults()

	valRows, err := gridCells(opt, len(trimIntensities), func(i int) (TrimPointResult, error) {
		return RunTrimPoint(trimIntensities[i], opt.Seed+int64(i))
	})
	if err != nil {
		return nil, err
	}
	nq, np := len(trimIntensities), len(trimGridPolicies)
	cells, err := gridCells(opt, len(trimGridProfiles)*nq*np, func(i int) (trimCell, error) {
		cellOpt := opt
		cellOpt.HostProfile = trimGridProfiles[i/(nq*np)]
		cellOpt.TrimRate = trimIntensities[i/np%nq]
		pol := trimGridPolicies[i%np]
		res, err := Run(cellOpt.HostProfile, pol, cellOpt)
		if err != nil {
			return trimCell{}, fmt.Errorf("trim grid %s q=%.2f %s: %w",
				cellOpt.HostProfile, cellOpt.TrimRate, pol.Kind, err)
		}
		return trimCell{profile: cellOpt.HostProfile, q: cellOpt.TrimRate, res: res}, nil
	})
	if err != nil {
		return nil, err
	}
	return []Table{trimValidationTable(valRows), trimGridTable(cells)}, nil
}

// trimGridTable renders the policy grid. The last two columns put the
// measured effective OP next to the greedy model evaluated at the measured
// live footprint — the per-cell Frankie reference for a workload whose
// trimmed share is emergent rather than steered.
func trimGridTable(cells []trimCell) Table {
	total := ftl.DefaultConfig().Geometry.TotalPages()
	t := Table{
		Title: "TRIM policy grid: host profile × TRIM intensity × policy",
		Columns: []string{"profile", "q", "policy", "WAF", "IOPS", "FGC",
			"trimmed pages", "erases", "host pages/erase", "eff. OP", "greedy@eff.OP"},
	}
	for _, c := range cells {
		r := c.res
		perErase := "n/a"
		if r.Erases > 0 {
			perErase = fmt.Sprintf("%.1f", float64(r.HostPrograms)/float64(r.Erases))
		}
		effOP, ref := "n/a", "n/a"
		if r.MappedPages > 0 && total > r.MappedPages {
			effOP = fmt.Sprintf("%.3f", float64(total-r.MappedPages)/float64(r.MappedPages))
			ref = fmt.Sprintf("%.3f", metrics.GreedyWAF(total, r.MappedPages))
		}
		t.AddRow(c.profile,
			fmt.Sprintf("%.2f", c.q),
			r.Policy,
			fmt.Sprintf("%.3f", r.WAF),
			fmt.Sprintf("%.0f", r.IOPS),
			fmt.Sprintf("%d", r.FGCInvocations),
			fmt.Sprintf("%d", r.TrimmedPages),
			fmt.Sprintf("%d", r.Erases),
			perErase,
			effOP, ref)
	}
	t.AddInfo("host pages/erase is the lifetime proxy (host data served per unit wear); " +
		"eff. OP is measured from the end-of-run live footprint, and greedy@eff.OP is " +
		"the Frankie greedy WAF at that footprint")
	return t
}
