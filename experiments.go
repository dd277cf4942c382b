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
	"jitgc/internal/predictor"
)

// Experiment regenerates one table or figure of the paper's evaluation.
type Experiment struct {
	// ID is the key used on the command line ("fig2a", "table2", …).
	ID string
	// Title describes the experiment.
	Title string
	// Run executes it and returns the report tables.
	Run func(opt Options) ([]Table, error)
}

// Experiments returns every reproducible table and figure of the paper plus
// the ablation studies DESIGN.md calls out, in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig2a", Title: "Fig 2(a): normalized IOPS vs reserved capacity sweep", Run: fig2a},
		{ID: "fig2b", Title: "Fig 2(b): normalized WAF vs reserved capacity sweep", Run: fig2b},
		{ID: "table1", Title: "Table 1: buffered/direct write breakdown", Run: table1},
		{ID: "fig4", Title: "Fig 4: buffered write demand estimation example", Run: fig4},
		{ID: "fig5", Title: "Fig 5: cumulative data histogram example", Run: fig5},
		{ID: "fig6", Title: "Fig 6: JIT-GC manager scheduling examples", Run: fig6},
		{ID: "fig7a", Title: "Fig 7(a): normalized IOPS of L-BGC/A-BGC/ADP-GC/JIT-GC", Run: fig7a},
		{ID: "fig7b", Title: "Fig 7(b): normalized WAF of L-BGC/A-BGC/ADP-GC/JIT-GC", Run: fig7b},
		{ID: "table2", Title: "Table 2: prediction accuracy of JIT-GC and ADP-GC", Run: table2},
		{ID: "table3", Title: "Table 3: SIP-filtered GC victim selections", Run: table3},
		{ID: "oracle", Title: "Ideal-policy anchor: oracle BGC vs JIT-GC (paper §2)", Run: oracleAnchor},
		{ID: "array", Title: "Array scaling: striped multi-device backend, independent vs coordinated GC", Run: arrayExp},
		{ID: "arrayscale", Title: "Array width: 16-64 devices under static vs adaptive GC tokens + rebuild under fire", Run: arrayscaleExp},
		{ID: "lifetime", Title: "Lifetime: host data served before wear-out per policy", Run: lifetime},
		{ID: "reliability", Title: "Reliability: fault-rate sweep per policy + degraded 2-device array", Run: reliability},
		{ID: "ablation-sip", Title: "Ablation: SIP victim filtering on/off", Run: ablationSIP},
		{ID: "ablation-percentile", Title: "Ablation: direct-write CDH percentile", Run: ablationPercentile},
		{ID: "ablation-flush", Title: "Ablation: relaxed vs strict flush-condition prediction", Run: ablationFlush},
		{ID: "ablation-victim", Title: "Ablation: GC victim selector", Run: ablationVictim},
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

// runFig2 executes the Cresv sweep for every benchmark and returns the
// result grid indexed [benchmark][factor]. The benchmark×factor cells are
// independent simulations, so they fan out over opt.Workers.
func runFig2(opt Options) (map[string][]Results, error) {
	benches := Benchmarks()
	grid := make(map[string][]Results, len(benches))
	for _, b := range benches {
		grid[b] = make([]Results, len(fig2Factors))
	}
	err := runGrid(opt, len(benches)*len(fig2Factors), func(i int) error {
		b, fi := benches[i/len(fig2Factors)], i%len(fig2Factors)
		res, err := Run(b, Fixed(fig2Factors[fi]), opt)
		if err != nil {
			return fmt.Errorf("fig2 %s ×%.2f: %w", b, fig2Factors[fi], err)
		}
		grid[b][fi] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return grid, nil
}

// normCell formats a normalized metric, degrading to "n/a" when the
// baseline was degenerate (zero IOPS or WAF yields NaN/Inf ratios).
func normCell(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

func fig2Table(opt Options, title string, metric func(r, base Results) float64) ([]Table, error) {
	grid, err := runFig2(opt)
	if err != nil {
		return nil, err
	}
	t := Table{Title: title, Columns: []string{"benchmark"}}
	for _, f := range fig2Factors {
		t.Columns = append(t.Columns, fmt.Sprintf("%.2fOP", f))
	}
	for _, b := range Benchmarks() {
		row := grid[b]
		base := row[len(row)-1] // normalize over 1.5×OP (= A-BGC), like the paper
		cells := []string{b}
		degenerate := false
		for _, r := range row {
			v := metric(r, base)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				degenerate = true
			}
			cells = append(cells, normCell(v))
		}
		if degenerate {
			t.AddNote("%s: degenerate baseline (IOPS=%.0f, WAF=%.3f) — normalized cells reported as n/a",
				b, base.IOPS, base.WAF)
		}
		t.AddRow(cells...)
	}
	return []Table{t}, nil
}

func fig2a(opt Options) ([]Table, error) {
	return fig2Table(opt, "Fig 2(a): IOPS normalized to the 1.5×OP (A-BGC) policy",
		func(r, base Results) float64 { return r.NormalizedIOPS(base) })
}

func fig2b(opt Options) ([]Table, error) {
	return fig2Table(opt, "Fig 2(b): WAF normalized to the 1.5×OP (A-BGC) policy",
		func(r, base Results) float64 { return r.NormalizedWAF(base) })
}

func table1(opt Options) ([]Table, error) {
	t := Table{
		Title:   "Table 1: device-level write breakdown (paper: 88.2/81.7/85.8/72.4/46.3/0.1 % buffered)",
		Columns: []string{"benchmark", "buffered %", "direct %"},
	}
	benches := Benchmarks()
	rows := make([]Results, len(benches))
	err := runGrid(opt, len(benches), func(i int) error {
		res, err := Run(benches[i], Lazy(), opt)
		if err != nil {
			return err
		}
		rows[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.AddRow(b,
			fmt.Sprintf("%.1f", 100*rows[i].BufferedRatio()),
			fmt.Sprintf("%.1f", 100*(1-rows[i].BufferedRatio())))
	}
	return []Table{t}, nil
}

// evaluation runs the four Fig. 7 policies over all benchmarks once and is
// shared by fig7a/fig7b/table2/table3. All benchmark×policy cells fan out
// over opt.Workers into pre-indexed slots.
func evaluation(opt Options) (map[string]map[string]Results, error) {
	policies := []PolicySpec{Lazy(), Aggressive(), ADP(), JIT()}
	benches := Benchmarks()
	slots := make([]Results, len(benches)*len(policies))
	err := runGrid(opt, len(slots), func(i int) error {
		b, p := benches[i/len(policies)], policies[i%len(policies)]
		res, err := Run(b, p, opt)
		if err != nil {
			return fmt.Errorf("evaluation %s/%s: %w", b, p.Kind, err)
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]Results, len(benches))
	for bi, b := range benches {
		out[b] = make(map[string]Results, len(policies))
		for pi := range policies {
			res := slots[bi*len(policies)+pi]
			out[b][res.Policy] = res
		}
	}
	return out, nil
}

func fig7Table(opt Options, title string, metric func(r, base Results) float64) ([]Table, error) {
	eval, err := evaluation(opt)
	if err != nil {
		return nil, err
	}
	t := Table{Title: title, Columns: []string{"benchmark", "L-BGC", "A-BGC", "ADP-GC", "JIT-GC"}}
	for _, b := range Benchmarks() {
		base := eval[b]["A-BGC"]
		cells := []string{b}
		degenerate := false
		for _, p := range []string{"L-BGC", "A-BGC", "ADP-GC", "JIT-GC"} {
			v := metric(eval[b][p], base)
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
	return []Table{t}, nil
}

func fig7a(opt Options) ([]Table, error) {
	return fig7Table(opt, "Fig 7(a): IOPS normalized to A-BGC",
		func(r, base Results) float64 { return r.NormalizedIOPS(base) })
}

func fig7b(opt Options) ([]Table, error) {
	return fig7Table(opt, "Fig 7(b): WAF normalized to A-BGC",
		func(r, base Results) float64 { return r.NormalizedWAF(base) })
}

func table2(opt Options) ([]Table, error) {
	t := Table{
		Title:   "Table 2: prediction accuracy % (paper JIT: 98.9/93.2/97.3/89.8/86.1/72.5; ADP: 87.7/72.8/82.0/73.4/74.1/71.2)",
		Columns: []string{"benchmark", "JIT-GC", "ADP-GC"},
	}
	benches := Benchmarks()
	specs := []PolicySpec{JIT(), ADP()}
	slots := make([]Results, len(benches)*len(specs))
	err := runGrid(opt, len(slots), func(i int) error {
		res, err := Run(benches[i/len(specs)], specs[i%len(specs)], opt)
		if err != nil {
			return err
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range benches {
		t.AddRow(b,
			fmt.Sprintf("%.1f", 100*slots[bi*len(specs)].PredictionAccuracy),
			fmt.Sprintf("%.1f", 100*slots[bi*len(specs)+1].PredictionAccuracy))
	}
	return []Table{t}, nil
}

func table3(opt Options) ([]Table, error) {
	t := Table{
		Title:   "Table 3: SIP-filtered GC victim selections % (paper: 12.2/20.6/17.5/8.7/4.9/1.1)",
		Columns: []string{"benchmark", "filtered %", "wasted migrations avoided"},
	}
	benches := Benchmarks()
	rows := make([]Results, len(benches))
	err := runGrid(opt, len(benches), func(i int) error {
		res, err := Run(benches[i], JIT(), opt)
		if err != nil {
			return err
		}
		rows[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.AddRow(b,
			fmt.Sprintf("%.1f", rows[i].FilteredVictimPct),
			fmt.Sprintf("%d", rows[i].WastedMigrations))
	}
	return []Table{t}, nil
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
	add := func(buf, dir []int64) []int64 {
		out := make([]int64, len(buf))
		for i := range out {
			out[i] = buf[i] + dir[i]
		}
		return out
	}
	dir := []int64{5 * mb, 5 * mb, 5 * mb, 5 * mb, 5 * mb, 5 * mb}
	dbuf10 := []int64{0, 0, 0, 0, 20 * mb, 40 * mb}
	dbuf20 := []int64{0, 0, 20 * mb, 40 * mb, 0, 200 * mb}
	at10 = core.Schedule(add(dbuf10, dir), cfree, period, bw, bgc, 1)
	at20 = core.Schedule(add(dbuf20, dir), cfree, period, bw, bgc, 1)
	return at10, at20
}

// oracleAnchor runs the paper's §2 ideal policy — perfect knowledge of
// future write volumes — beside JIT-GC and A-BGC: the gap between JIT-GC
// and the oracle is the cost of *prediction* error, while the gap between
// the oracle and A-BGC is the value of *timing* itself.
func oracleAnchor(opt Options) ([]Table, error) {
	t := Table{
		Title:   "Ideal-policy anchor (values normalized to A-BGC)",
		Columns: []string{"benchmark", "oracle IOPS", "JIT IOPS", "oracle WAF", "JIT WAF", "oracle FGC", "JIT FGC"},
	}
	benches := Benchmarks()
	const perBench = 3 // A-BGC baseline, JIT-GC, oracle
	slots := make([]Results, len(benches)*perBench)
	err := runGrid(opt, len(slots), func(i int) error {
		b := benches[i/perBench]
		var res Results
		var err error
		switch i % perBench {
		case 0:
			res, err = Run(b, Aggressive(), opt)
		case 1:
			res, err = Run(b, JIT(), opt)
		case 2:
			res, err = RunOracle(b, opt)
		}
		if err != nil {
			return fmt.Errorf("oracle anchor %s: %w", b, err)
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range benches {
		base, jit, oracle := slots[bi*perBench], slots[bi*perBench+1], slots[bi*perBench+2]
		t.AddRow(b,
			normCell(oracle.NormalizedIOPS(base)),
			normCell(jit.NormalizedIOPS(base)),
			normCell(oracle.NormalizedWAF(base)),
			normCell(jit.NormalizedWAF(base)),
			fmt.Sprintf("%d", oracle.FGCInvocations),
			fmt.Sprintf("%d", jit.FGCInvocations))
	}
	return []Table{t}, nil
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
	slots := make([]LifetimeResult, len(benches)*len(policies))
	err := runGrid(opt, len(slots), func(i int) error {
		b, p := benches[i/len(policies)], policies[i%len(policies)]
		res, err := RunUntilWearOut(b, p, enduranceLimit, opt)
		if err != nil {
			return fmt.Errorf("lifetime %s/%s: %w", b, p.Kind, err)
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range benches {
		rows := map[string]LifetimeResult{}
		for pi := range policies {
			res := slots[bi*len(policies)+pi]
			rows[res.Policy] = res
		}
		base := float64(rows["A-BGC"].HostBytesWritten)
		if base == 0 {
			t.AddNote("%s: A-BGC served zero host bytes — normalized cells reported as n/a", b)
		}
		baseCell := "1.000"
		if base == 0 {
			baseCell = "n/a"
		}
		t.AddRow(b,
			normLifetimeCell(float64(rows["L-BGC"].HostBytesWritten), base),
			baseCell,
			normLifetimeCell(float64(rows["JIT-GC"].HostBytesWritten), base),
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

// ablationSIP compares full JIT-GC against JIT-GC without SIP forwarding.
func ablationSIP(opt Options) ([]Table, error) {
	t := Table{
		Title:   "Ablation: SIP victim filtering (JIT-GC with vs without the SIP list)",
		Columns: []string{"benchmark", "WAF with SIP", "WAF without", "wasted migr. with", "wasted migr. without"},
	}
	benches := Benchmarks()
	noSIP := JIT()
	noSIP.DisableSIP = true
	specs := []PolicySpec{JIT(), noSIP}
	slots := make([]Results, len(benches)*len(specs))
	err := runGrid(opt, len(slots), func(i int) error {
		res, err := Run(benches[i/len(specs)], specs[i%len(specs)], opt)
		if err != nil {
			return err
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range benches {
		with, without := slots[bi*len(specs)], slots[bi*len(specs)+1]
		t.AddRow(b,
			fmt.Sprintf("%.3f", with.WAF), fmt.Sprintf("%.3f", without.WAF),
			fmt.Sprintf("%d", with.WastedMigrations), fmt.Sprintf("%d", without.WastedMigrations))
	}
	return []Table{t}, nil
}

// ablationPercentile sweeps the direct-write CDH percentile the paper fixes
// at 80%.
func ablationPercentile(opt Options) ([]Table, error) {
	t := Table{
		Title:   "Ablation: direct-write CDH percentile (paper argues 80% balances IOPS and WAF)",
		Columns: []string{"benchmark", "pct", "IOPS", "WAF", "FGC"},
	}
	benches := []string{"Tiobench", "TPC-C"} // the direct-write-heavy pair
	pcts := []float64{0.5, 0.8, 0.95}
	slots := make([]Results, len(benches)*len(pcts))
	err := runGrid(opt, len(slots), func(i int) error {
		spec := JIT()
		spec.JIT = core.JITOptions{Percentile: pcts[i%len(pcts)]}
		res, err := Run(benches[i/len(pcts)], spec, opt)
		if err != nil {
			return err
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range benches {
		for pi, pct := range pcts {
			res := slots[bi*len(pcts)+pi]
			t.AddRow(b, fmt.Sprintf("%.0f%%", 100*pct),
				fmt.Sprintf("%.0f", res.IOPS), fmt.Sprintf("%.3f", res.WAF),
				fmt.Sprintf("%d", res.FGCInvocations))
		}
	}
	return []Table{t}, nil
}

// ablationFlush compares the paper's relaxed τ_flush prediction against the
// strict variant it argues against (§3.2.1).
func ablationFlush(opt Options) ([]Table, error) {
	t := Table{
		Title:   "Ablation: relaxed vs strict flush-condition prediction (strict under-predicts → FGC)",
		Columns: []string{"benchmark", "relaxed FGC", "strict FGC", "relaxed acc %", "strict acc %"},
	}
	benches := []string{"YCSB", "Postmark", "Filebench"} // buffered-heavy trio
	strictSpec := JIT()
	strictSpec.JIT = core.JITOptions{StrictFlushPrediction: true}
	specs := []PolicySpec{JIT(), strictSpec}
	slots := make([]Results, len(benches)*len(specs))
	err := runGrid(opt, len(slots), func(i int) error {
		res, err := Run(benches[i/len(specs)], specs[i%len(specs)], opt)
		if err != nil {
			return err
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range benches {
		relaxed, strict := slots[bi*len(specs)], slots[bi*len(specs)+1]
		t.AddRow(b,
			fmt.Sprintf("%d", relaxed.FGCInvocations), fmt.Sprintf("%d", strict.FGCInvocations),
			fmt.Sprintf("%.1f", 100*relaxed.PredictionAccuracy), fmt.Sprintf("%.1f", 100*strict.PredictionAccuracy))
	}
	return []Table{t}, nil
}

// ablationVictim compares victim selectors under the L-BGC policy, where
// selection quality dominates.
func ablationVictim(opt Options) ([]Table, error) {
	t := Table{
		Title:   "Ablation: GC victim selector under L-BGC",
		Columns: []string{"benchmark", "selector", "WAF", "erases"},
	}
	benches := []string{"YCSB", "Postmark", "TPC-C"}
	selectors := []string{"greedy", "cost-benefit"}
	slots := make([]Results, len(benches)*len(selectors))
	err := runGrid(opt, len(slots), func(i int) error {
		sel := selectors[i%len(selectors)]
		opt2 := opt
		cfg, _ := opt.withDefaults().simConfig()
		if sel == "cost-benefit" {
			cfg.FTL.Selector = ftl.CostBenefit{}
		}
		opt2.Config = &cfg
		res, err := Run(benches[i/len(selectors)], Lazy(), opt2)
		if err != nil {
			return err
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range benches {
		for si, sel := range selectors {
			res := slots[bi*len(selectors)+si]
			t.AddRow(b, sel, fmt.Sprintf("%.3f", res.WAF), fmt.Sprintf("%d", res.Erases))
		}
	}
	return []Table{t}, nil
}
