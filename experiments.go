package jitgc

import (
	"fmt"
	"math"
	"strings"
	"time"

	"jitgc/internal/core"
	"jitgc/internal/ftl"
	"jitgc/internal/histogram"
	"jitgc/internal/pagecache"
	"jitgc/internal/parallel"
	"jitgc/internal/predictor"
	"jitgc/internal/sim"
)

// Experiment regenerates one table or figure of the paper's evaluation.
type Experiment struct {
	// ID is the key used on the command line ("evaluation", "lifetime", …).
	ID string
	// Title describes the experiment.
	Title string
	// Run executes it and returns the report tables.
	Run func(opt Options) ([]Table, error)
}

// Experiments returns every reproducible table and figure of the paper's
// evaluation, its ablations included, plus the extension studies DESIGN.md
// calls out, in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "evaluation", Title: "Paper evaluation: Fig 2, Table 1, Fig 7, Tables 2-3, the oracle replay and the §3.2 ablations over one benchmark × policy grid", Run: evaluationExp},
		{ID: "fig4", Title: "Fig 4: buffered write demand estimation example", Run: fig4},
		{ID: "fig5", Title: "Fig 5: cumulative data histogram example", Run: fig5},
		{ID: "fig6", Title: "Fig 6: JIT-GC manager scheduling examples", Run: fig6},
		{ID: "array", Title: "Array: striped multi-device backend at 1-64 devices, independent vs coordinated GC tokens + rebuild under fire", Run: arrayExp},
		{ID: "lifetime", Title: "Lifetime: host data served before wear-out per policy", Run: lifetime},
		{ID: "reliability", Title: "Reliability: fault-rate sweep per policy", Run: reliability},
		{ID: "scale", Title: "Scale: metadata footprint and WAF vs device capacity (256 MiB – 64 GiB)", Run: scaleExp},
		{ID: "multitenant", Title: "Multi-tenant: open-loop QoS grid (tenants × load × policy) with p99.9 SLO verdicts", Run: multitenantExp},
		{ID: "trim", Title: "TRIM: Frankie-validated WAF sweep + host profile × intensity × policy grid", Run: trimExp},
	}
}

// ExperimentByID returns the experiment with the given ID.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("jitgc: unknown experiment %q (valid ids: %s)",
		id, strings.Join(ExperimentIDs(), ", "))
}

// ExperimentIDs returns every experiment ID in presentation order.
func ExperimentIDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// fig2Factors is the reserved-capacity sweep of the paper's Fig. 2.
var fig2Factors = []float64{0.5, 0.75, 1.0, 1.25, 1.5}

// The arms of the paper grid, in cell order within a benchmark. Arms 0–4
// are Fig. 2's C_resv sweep over fig2Factors, whose ends run the paper's
// L-BGC and A-BGC (C_resv = 0.5× and 1.5× C_OP; TestLazyAggressiveAreSweepEnds
// holds each to its Fixed twin).
const (
	armLBGC   = 0
	armABGC   = 4
	armADP    = 5
	armJIT    = 6
	armGreedy = 7  // JIT-GC with plain greedy victim selection: Table 3's control
	armPct50  = 8  // JIT-GC at the 50th direct-write CDH percentile (§3.2.2 ablation)
	armPct95  = 9  // … and at the 95th; armJIT is the paper's 80th
	armStrict = 10 // JIT-GC with the strict τ_flush condition (§3.2.1 ablation)
	armOracle = 11 // replays the benchmark's A-BGC cell, so it runs in a second pass
	numArms   = 12
)

// armPolicy returns the policy of one first-pass arm of the paper grid.
func armPolicy(arm int) sim.PolicyFactory {
	jit := JIT()
	switch arm {
	case armLBGC:
		return Lazy().Factory()
	case armABGC:
		return Aggressive().Factory()
	case armADP:
		return ADP().Factory()
	case armJIT: // the paper's JIT-GC; the ablation arms below retune it
	case armGreedy: // SIP list forwarded as usual, victims picked by plain greedy
		return func(env *sim.Env) (core.Policy, error) {
			p, err := jit.Factory()(env)
			if err != nil {
				return nil, err
			}
			return p, env.FTL.SetSelector(ftl.Greedy)
		}
	case armPct50:
		jit.JIT.Percentile = 0.5
	case armPct95:
		jit.JIT.Percentile = 0.95
	case armStrict:
		jit.JIT.StrictFlushPrediction = true
	default:
		return Fixed(fig2Factors[arm]).Factory()
	}
	return jit.Factory()
}

// evaluationExp runs the paper grid — every benchmark under every arm,
// each cell once, fanned out over opt.Workers — and renders Fig. 2,
// Table 1, Fig. 7, Tables 2 and 3, the oracle replay and the two ablations
// from its cells.
func evaluationExp(opt Options) ([]Table, error) {
	benches := Benchmarks()
	grid := make([][]Results, len(benches))
	for bi := range grid {
		grid[bi] = make([]Results, numArms)
	}
	// pass runs arms [first, last) of every benchmark. The oracle cells
	// replay the A-BGC cells' recordings, so they run in a second pass.
	futures := make([][]int64, len(benches))
	pass := func(first, last int) error {
		n := last - first
		return parallel.Run(opt.workers(), len(benches)*n, func(i int) error {
			bi, arm := i/n, first+i%n
			var policy sim.PolicyFactory
			if arm == armOracle {
				policy = oraclePolicy(futures[bi])
			} else {
				policy = armPolicy(arm)
			}
			res, s, err := runBenchmark(benches[bi], policy, opt)
			if err != nil {
				return fmt.Errorf("evaluation %s arm %d: %w", benches[bi], arm, err)
			}
			if arm == armABGC {
				futures[bi] = s.IntervalActuals()
			}
			grid[bi][arm] = res
			return nil
		})
	}
	if err := pass(0, armOracle); err != nil {
		return nil, err
	}
	if err := pass(armOracle, numArms); err != nil {
		return nil, err
	}

	sweep, sweepCols := make([]int, len(fig2Factors)), make([]string, len(fig2Factors))
	for i, f := range fig2Factors {
		sweep[i], sweepCols[i] = i, fmt.Sprintf("%.2fOP", f)
	}
	fig7 := []int{armLBGC, armABGC, armADP, armJIT}
	fig7Cols := []string{"L-BGC", "A-BGC", "ADP-GC", "JIT-GC"}
	return []Table{
		normTable("Fig 2(a): IOPS normalized to the 1.5×OP (A-BGC) policy", sweepCols, sweep, benches, grid, Results.NormalizedIOPS),
		normTable("Fig 2(b): WAF normalized to the 1.5×OP (A-BGC) policy", sweepCols, sweep, benches, grid, Results.NormalizedWAF),
		breakdownTable(benches, grid),
		normTable("Fig 7(a): IOPS normalized to A-BGC", fig7Cols, fig7, benches, grid, Results.NormalizedIOPS),
		normTable("Fig 7(b): WAF normalized to A-BGC", fig7Cols, fig7, benches, grid, Results.NormalizedWAF),
		accuracyTable(benches, grid),
		sipTable(benches, grid),
		oracleTable(benches, grid),
		percentileTable(benches, grid),
		flushTable(benches, grid),
	}, nil
}

// normCell formats a normalized metric, degrading to "n/a" when the
// baseline was degenerate (zero IOPS or WAF yields NaN/Inf ratios).
func normCell(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

// normTable renders the given arms of every benchmark's row normalized
// over the row's A-BGC cell, noting a degenerate baseline.
func normTable(title string, cols []string, arms []int, benches []string, grid [][]Results, metric func(r, base Results) float64) Table {
	t := Table{Title: title, Columns: append([]string{"benchmark"}, cols...)}
	for bi, b := range benches {
		base := grid[bi][armABGC]
		cells := []string{b}
		degenerate := false
		for _, arm := range arms {
			v := metric(grid[bi][arm], base)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				degenerate = true
			}
			cells = append(cells, normCell(v))
		}
		if degenerate {
			t.AddNote("%s: degenerate A-BGC baseline (IOPS=%.0f, WAF=%.3f) — normalized cells reported as n/a",
				b, base.IOPS, base.WAF)
		}
		t.AddRow(cells...)
	}
	return t
}

// breakdownTable is Table 1, read from the L-BGC cells.
func breakdownTable(benches []string, grid [][]Results) Table {
	t := Table{
		Title:   "Table 1: device-level write breakdown (paper: 88.2/81.7/85.8/72.4/46.3/0.1 % buffered)",
		Columns: []string{"benchmark", "buffered %", "direct %"},
	}
	for bi, b := range benches {
		r := grid[bi][armLBGC].BufferedRatio()
		t.AddRow(b, fmt.Sprintf("%.1f", 100*r), fmt.Sprintf("%.1f", 100*(1-r)))
	}
	return t
}

// accuracyTable is Table 2.
func accuracyTable(benches []string, grid [][]Results) Table {
	t := Table{
		Title:   "Table 2: prediction accuracy % (paper JIT: 98.9/93.2/97.3/89.8/86.1/72.5; ADP: 87.7/72.8/82.0/73.4/74.1/71.2)",
		Columns: []string{"benchmark", "JIT-GC", "ADP-GC"},
	}
	for bi, b := range benches {
		t.AddRow(b,
			fmt.Sprintf("%.1f", 100*grid[bi][armJIT].PredictionAccuracy),
			fmt.Sprintf("%.1f", 100*grid[bi][armADP].PredictionAccuracy))
	}
	return t
}

// sipTable is Table 3: what SIP filtering buys. Both arms run JIT-GC with
// its SIP list installed, one with the paper's SIP-greedy victim selection
// and one with plain greedy (armGreedy). Wasted migrations are GC moves
// of pages on the list, so the greedy arm's excess over the SIP-greedy arm
// is the waste filtering avoided.
func sipTable(benches []string, grid [][]Results) Table {
	t := Table{
		Title: "Table 3: SIP-filtered GC victim selections % (paper: 12.2/20.6/17.5/8.7/4.9/1.1), JIT-GC with SIP-greedy vs greedy selection",
		Columns: []string{"benchmark", "filtered %", "wasted migrations (SIP-greedy)", "wasted migrations (greedy)",
			"avoided", "WAF (SIP-greedy)", "WAF (greedy)"},
	}
	for bi, b := range benches {
		sip, greedy := grid[bi][armJIT], grid[bi][armGreedy]
		t.AddRow(b,
			fmt.Sprintf("%.1f", sip.FilteredVictimPct),
			fmt.Sprintf("%d", sip.WastedMigrations),
			fmt.Sprintf("%d", greedy.WastedMigrations),
			fmt.Sprintf("%d", greedy.WastedMigrations-sip.WastedMigrations),
			fmt.Sprintf("%.3f", sip.WAF),
			fmt.Sprintf("%.3f", greedy.WAF))
	}
	return t
}

// oracleTable sets the oracle replay (RunOracle) beside JIT-GC, both
// normalized to A-BGC. The oracle knows the device write volume an A-BGC
// run recorded, not its own future, so it is no upper bound: on the
// direct-heavy benchmarks its IOPS falls below JIT-GC's (EXPERIMENTS.md).
func oracleTable(benches []string, grid [][]Results) Table {
	t := Table{
		Title:   "Ideal-policy anchor (values normalized to A-BGC)",
		Columns: []string{"benchmark", "oracle IOPS", "JIT IOPS", "oracle WAF", "JIT WAF", "oracle FGC", "JIT FGC"},
	}
	for bi, b := range benches {
		base, jit, oracle := grid[bi][armABGC], grid[bi][armJIT], grid[bi][armOracle]
		t.AddRow(b,
			normCell(oracle.NormalizedIOPS(base)),
			normCell(jit.NormalizedIOPS(base)),
			normCell(oracle.NormalizedWAF(base)),
			normCell(jit.NormalizedWAF(base)),
			fmt.Sprintf("%d", oracle.FGCInvocations),
			fmt.Sprintf("%d", jit.FGCInvocations))
	}
	return t
}

// fig4 reproduces the paper's worked example of buffered demand estimation:
// writes A(20 MB)@2s, B(20 MB)@4s, C(20 MB)@7s, B′@9s, D(200 MB)@17s with
// p = 5 s and τ_expire = 30 s must yield
// Dbuf(5) = (0,0,0,0,0,40), Dbuf(10) = (0,0,0,0,20,40),
// Dbuf(20) = (0,0,20,40,0,200).
func fig4(Options) ([]Table, error) {
	demands, err := Fig4Demands()
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:   "Fig 4: Dbuf(t) in MB (paper: (0,0,0,0,0,40) / (0,0,0,0,20,40) / (0,0,20,40,0,200))",
		Columns: []string{"t", "D1", "D2", "D3", "D4", "D5", "D6"},
	}
	for _, at := range []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second} {
		cells := []string{at.String()}
		for _, v := range demands[at] {
			cells = append(cells, fmt.Sprintf("%.0f", float64(v)/mb))
		}
		t.AddRow(cells...)
	}
	return []Table{t}, nil
}

const mb = 1e6

// Fig4Demands runs the paper's Fig. 4 scenario and returns Dbuf(t) for
// t = 5 s, 10 s, 20 s. Exposed so tests can assert the exact sequences.
func Fig4Demands() (map[time.Duration]predictor.Demand, error) {
	cfg := pagecache.Config{
		PageSize:      4096,
		CapacityPages: 1 << 17,
		FlusherPeriod: 5 * time.Second,
		Expire:        30 * time.Second,
		FlushRatio:    1.0, // the paper's example has no flush-pressure component
	}
	cache, err := pagecache.New(cfg)
	if err != nil {
		return nil, err
	}
	buf := predictor.NewBuffered(cache)

	// One "20 MB" unit, rounded to whole pages; D is written as exactly
	// ten units so the 1:2:10 structure of the figure is exact.
	unit := 20 * 1e6 / cfg.PageSize
	write := func(at time.Duration, lpn int64, units int) error {
		_, err := cache.Write(at, lpn, units*unit)
		return err
	}
	// Non-overlapping extents for A, B, C, D; B′ rewrites B's extent.
	const (
		lpnA = 0
		lpnB = 200000
		lpnC = 400000
		lpnD = 600000
	)
	out := make(map[time.Duration]predictor.Demand)
	steps := []struct {
		at   time.Duration
		run  func() error
		snap bool
	}{
		{2 * time.Second, func() error { return write(2*time.Second, lpnA, 1) }, false},
		{4 * time.Second, func() error { return write(4*time.Second, lpnB, 1) }, false},
		{5 * time.Second, nil, true},
		{7 * time.Second, func() error { return write(7*time.Second, lpnC, 1) }, false},
		{9 * time.Second, func() error { return write(9*time.Second, lpnB, 1) }, false}, // B′
		{10 * time.Second, nil, true},
		{17 * time.Second, func() error { return write(17*time.Second, lpnD, 10) }, false},
		{20 * time.Second, nil, true},
	}
	for _, st := range steps {
		if st.run != nil {
			if err := st.run(); err != nil {
				return nil, err
			}
		}
		if st.snap {
			cache.Flush(st.at) // the predictor runs right after the flusher
			demand, _ := buf.Predict(st.at)
			out[st.at] = demand.Clone() // Predict reuses its buffer
		}
	}
	return out, nil
}

// fig5 reproduces the CDH example: window volumes 10, 20, 20, 20, 80 MB
// give an 80th-percentile reserve of 20 MB.
func fig5(Options) ([]Table, error) {
	h, err := histogram.New(10*mb, 16)
	if err != nil {
		return nil, err
	}
	for _, v := range []float64{10 * mb, 20 * mb, 20 * mb, 20 * mb, 80 * mb} {
		h.Add(v - 1) // "less than 20 MB" lands in the [10,20) bin, as in the figure
	}
	cdh := h.CDH()
	t := Table{
		Title:   "Fig 5: CDH of direct-write window volumes (paper: 80% of windows < 20 MB → reserve 20 MB)",
		Columns: []string{"bin upper edge (MB)", "CDH"},
	}
	for i, v := range cdh {
		if v == 0 && i > 8 {
			break
		}
		t.AddRow(fmt.Sprintf("%.0f", float64(i+1)*10), fmt.Sprintf("%.2f", v))
	}
	t.AddRow("reserve @80%", fmt.Sprintf("%.0f MB", h.ValueAtPercentile(0.80)/mb))
	return []Table{t}, nil
}

// fig6 reproduces the manager's worked scheduling decisions.
func fig6(Options) ([]Table, error) {
	t10, t20 := Fig6Decisions()
	t := Table{
		Title:   "Fig 6: D_reclaim decisions (paper: 0 MB at t=10, 12.5 MB at t=20)",
		Columns: []string{"t", "Creq (MB)", "Cfree (MB)", "D_reclaim (MB)"},
	}
	t.AddRow("10s", "90", "50", fmt.Sprintf("%.1f", float64(t10)/mb))
	t.AddRow("20s", "290", "50", fmt.Sprintf("%.1f", float64(t20)/mb))
	return []Table{t}, nil
}

// Fig6Decisions evaluates the pure scheduling rule on the paper's Fig. 6
// inputs (p = 5 s, τ_expire = 30 s, Bw = 40 MB/s, Bgc = 10 MB/s,
// Cfree = 50 MB) and returns D_reclaim at t = 10 and t = 20.
func Fig6Decisions() (at10, at20 int64) {
	const (
		cfree  = 50 * mb
		bw     = 40 * mb
		bgc    = 10 * mb
		period = 5 * time.Second
	)
	// Fig. 4's Dbuf(10) and Dbuf(20), plus 5 MB of direct writes per window.
	d10 := []int64{0, 0, 0, 0, 20 * mb, 40 * mb}
	d20 := []int64{0, 0, 20 * mb, 40 * mb, 0, 200 * mb}
	for i := range d10 {
		d10[i] += 5 * mb
		d20[i] += 5 * mb
	}
	at10 = core.Schedule(d10, cfree, period, bw, bgc, 1)
	at20 = core.Schedule(d20, cfree, period, bw, bgc, 1)
	return at10, at20
}

// lifetime measures the paper's title claim directly: with a finite
// per-block erase budget, how much host data does each policy serve before
// the device wears out? Lower WAF must translate into longer life.
func lifetime(opt Options) ([]Table, error) {
	const enduranceLimit = 25
	if opt.Ops < 30000 {
		opt.Ops = 30000 // lifetime replays the stream until wear-out; tiny
		// streams would hit the round cap before the erase budget
	}
	t := Table{
		Title:   fmt.Sprintf("Host data served before wear-out (erase budget %d per block), normalized to A-BGC", enduranceLimit),
		Columns: []string{"benchmark", "L-BGC", "A-BGC", "JIT-GC", "A-BGC MB"},
	}
	benches := []string{"YCSB", "Postmark", "TPC-C"}
	policies := []PolicySpec{Lazy(), Aggressive(), JIT()}
	slots, err := gridCells(opt, len(benches)*len(policies), func(i int) (LifetimeResult, error) {
		b, p := benches[i/len(policies)], policies[i%len(policies)]
		res, err := RunUntilWearOut(b, p, enduranceLimit, opt)
		if err != nil {
			return res, fmt.Errorf("lifetime %s/%s: %w", b, p.Kind, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range benches {
		row := slots[bi*len(policies) : (bi+1)*len(policies)] // L-BGC, A-BGC, JIT-GC
		base := float64(row[1].HostBytesWritten)
		baseCell := "1.000"
		if base == 0 {
			t.AddNote("%s: A-BGC served zero host bytes — normalized cells reported as n/a", b)
			baseCell = "n/a"
		}
		t.AddRow(b,
			normLifetimeCell(float64(row[0].HostBytesWritten), base),
			baseCell,
			normLifetimeCell(float64(row[2].HostBytesWritten), base),
			fmt.Sprintf("%.0f", base/1e6))
	}
	return []Table{t}, nil
}

// normLifetimeCell renders v/base with a degenerate-baseline guard.
func normLifetimeCell(v, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v/base)
}

// percentileTable is the §3.2.2 ablation: JIT-GC reserving the 50th, the
// paper's 80th and the 95th percentile of the direct-write CDH.
func percentileTable(benches []string, grid [][]Results) Table {
	t := Table{
		Title:   "Ablation: direct-write CDH percentile (paper argues 80% balances IOPS and WAF)",
		Columns: []string{"benchmark", "pct", "IOPS", "WAF", "FGC"},
	}
	pcts := []string{"50%", "80%", "95%"}
	for bi, b := range benches {
		for i, arm := range []int{armPct50, armJIT, armPct95} {
			res := grid[bi][arm]
			t.AddRow(b, pcts[i], fmt.Sprintf("%.0f", res.IOPS), fmt.Sprintf("%.3f", res.WAF),
				fmt.Sprintf("%d", res.FGCInvocations))
		}
	}
	return t
}

// flushTable is the §3.2.1 ablation: the paper's relaxed τ_flush
// prediction (armJIT) against the strict variant it argues against.
func flushTable(benches []string, grid [][]Results) Table {
	t := Table{
		Title:   "Ablation: relaxed vs strict flush-condition prediction (strict under-predicts → FGC)",
		Columns: []string{"benchmark", "relaxed FGC", "strict FGC", "relaxed acc %", "strict acc %"},
	}
	for bi, b := range benches {
		relaxed, strict := grid[bi][armJIT], grid[bi][armStrict]
		t.AddRow(b,
			fmt.Sprintf("%d", relaxed.FGCInvocations), fmt.Sprintf("%d", strict.FGCInvocations),
			fmt.Sprintf("%.1f", 100*relaxed.PredictionAccuracy), fmt.Sprintf("%.1f", 100*strict.PredictionAccuracy))
	}
	return t
}
