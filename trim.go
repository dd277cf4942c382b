package jitgc

import (
	"fmt"

	"jitgc/internal/ftl"
	"jitgc/internal/metrics"
	"jitgc/internal/nand"
)

// The trim experiment answers the ROADMAP's last open question: does
// JIT-GC's verdict survive on hosts that actually discard? It has two
// parts. The validation sweep drives the FTL directly with a steered
// trimmed fraction, through the scale grid's runner, and checks the
// measured steady-state WAF against the greedy model at the reduced live
// footprint — Frankie et al.'s substitution, which says TRIM inflates
// effective over-provisioning and collapses WAF.
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

// trimValidationTable renders the sweep rows, flagging any cell whose
// measured WAF strays from the greedy model (which makes paperbench exit
// non-zero). Split from trimExp so the tolerance logic is testable without
// re-running the steady-state sweep.
func trimValidationTable(rows []SteadyResult) Table {
	t := Table{
		Title: "TRIM validation sweep: measured steady-state WAF vs greedy model at the trimmed footprint " +
			fmt.Sprintf("(uniform random writes over %.0f%% of user capacity, steered trimmed fraction)",
				100*trimFillFraction),
		Columns: []string{"q", "ws pages", "mapped", "eff. OP",
			"WAF", "greedy model"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.2f", r.Q),
			fmt.Sprintf("%d", r.WorkingSetPages),
			fmt.Sprintf("%d", r.MappedPages),
			fmt.Sprintf("%.3f", r.EffectiveOP),
			fmt.Sprintf("%.3f", r.WAF),
			fmt.Sprintf("%.3f", r.GreedyWAF))
		noteEscape(&t, r, fmt.Sprintf("q=%.2f", r.Q))
	}
	t.AddInfo("Frankie et al.: a trimmed fraction q shrinks the live footprint to (1-q)·ws, " +
		"inflating effective OP; the greedy model is evaluated at that footprint")
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

	preset := nand.ScalePresets()[0] // 256MiB, the default geometry
	valRows, err := gridCells(opt, len(trimIntensities), func(i int) (SteadyResult, error) {
		return runSteady(preset, trimFillFraction, trimIntensities[i], opt.Seed+int64(i))
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
	geo := ftl.DefaultConfig().Geometry
	total := geo.TotalPages()
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
		if op, ok := effectiveOP(total, r.MappedPages); ok {
			effOP = fmt.Sprintf("%.3f", op)
			ref = fmt.Sprintf("%.3f", metrics.GreedyWAF(total, r.MappedPages, geo.PagesPerBlock))
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
		"the greedy model at that footprint")
	return t
}
