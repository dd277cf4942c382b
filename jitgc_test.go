package jitgc

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"jitgc/internal/array"
	"jitgc/internal/ftl"
	"jitgc/internal/metrics"
	"jitgc/internal/sim"
	"jitgc/internal/telemetry"
	"jitgc/internal/tenant"
	"jitgc/internal/trace"
)

// smallOpt keeps facade-level tests fast: fewer requests, same machinery.
func smallOpt() Options { return Options{Seed: 1, Ops: 8000} }

func TestBenchmarksListMatchesPaper(t *testing.T) {
	want := []string{"YCSB", "Postmark", "Filebench", "Bonnie++", "Tiobench", "TPC-C"}
	got := Benchmarks()
	if len(got) != len(want) {
		t.Fatalf("benchmarks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("benchmark %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestPolicySpecConstructors(t *testing.T) {
	if Lazy().Kind != "L-BGC" || Aggressive().Kind != "A-BGC" ||
		ADP().Kind != "ADP-GC" || JIT().Kind != "JIT-GC" {
		t.Error("constructor kinds wrong")
	}
	if f := Fixed(0.75); f.Kind != "fixed" || f.Factor != 0.75 {
		t.Errorf("Fixed = %+v", f)
	}
}

func TestFactoryRejectsBadSpecs(t *testing.T) {
	cfg := sim.DefaultConfig()
	for _, spec := range []PolicySpec{
		{Kind: "bogus"}, Fixed(0), Fixed(math.NaN()), Fixed(math.Inf(1)),
	} {
		if _, err := sim.New(cfg, spec.Factory()); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run("nope", Lazy(), smallOpt()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestRunMultiTenantZeroTenants: a zero tenant count must reach tenant.New
// and come back as its validation error, not divide the request budget by
// zero on the way.
func TestRunMultiTenantZeroTenants(t *testing.T) {
	want := tenant.Config{}.Validate()
	_, err := RunMultiTenant(JIT(), tenant.Config{}, smallOpt())
	if err == nil || err.Error() != want.Error() {
		t.Errorf("RunMultiTenant with zero tenants: got %v, want %v", err, want)
	}
}

func TestRunEveryPolicyOnYCSB(t *testing.T) {
	for _, spec := range []PolicySpec{
		Lazy(), Aggressive(), Fixed(1.0), ADP(), JIT(), {Kind: "no-BGC"},
	} {
		res, err := Run("YCSB", spec, smallOpt())
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if res.Requests == 0 || res.IOPS <= 0 {
			t.Errorf("%s: empty results %+v", spec.Kind, res)
		}
		if res.Workload != "YCSB" {
			t.Errorf("%s: workload = %q", spec.Kind, res.Workload)
		}
		if res.WAF < 1 {
			t.Errorf("%s: WAF = %v < 1", spec.Kind, res.WAF)
		}
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	a, err := Run("Postmark", JIT(), smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("Postmark", JIT(), smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if a.IOPS != b.IOPS || a.WAF != b.WAF || a.Erases != b.Erases {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Seed != 1 || o.Ops != 100000 {
		t.Errorf("defaults = %+v", o)
	}
	cfg, ws := o.simConfig()
	user := ftl.UserPagesFor(cfg.FTL.Geometry.TotalPages(), cfg.FTL.OPRatio)
	if ws != user/2 {
		t.Errorf("working set = %d, want half of user %d", ws, user)
	}
	if cfg.PreconditionPages != int64(fillFraction*float64(user)) {
		t.Errorf("precondition = %d", cfg.PreconditionPages)
	}
	// A working set past the fill is preconditioned whole, up to user
	// capacity.
	o.WorkingSetPages = user * 19 / 20
	if cfg2, ws2 := o.simConfig(); cfg2.PreconditionPages != ws2 {
		t.Errorf("fill below the working set not raised to it: %d vs %d", cfg2.PreconditionPages, ws2)
	}
	o.WorkingSetPages = 2 * user
	if cfg3, _ := o.simConfig(); cfg3.PreconditionPages != user {
		t.Errorf("working set past user capacity not clamped to it: %d", cfg3.PreconditionPages)
	}
}

func TestRunTraceOpenLoop(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.PreconditionPages = 1000
	reqs := []trace.Request{
		{Time: 0, Kind: trace.DirectWrite, LPN: 0, Pages: 4},
		{Time: time.Second, Kind: trace.Read, LPN: 0, Pages: 4},
	}
	res, err := RunTrace(reqs, "custom", Lazy(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "custom" || res.Requests != 2 {
		t.Errorf("results = %+v", res)
	}
}

func TestPaperFig4Demands(t *testing.T) {
	demands, err := Fig4Demands()
	if err != nil {
		t.Fatal(err)
	}
	// The exact per-interval MB shape of the paper's example: positions of
	// the non-zero entries and their 1:2:10 volume structure.
	shapes := map[time.Duration][6]int64{
		5 * time.Second:  {0, 0, 0, 0, 0, 2},
		10 * time.Second: {0, 0, 0, 0, 1, 2},
		20 * time.Second: {0, 0, 1, 2, 0, 10},
	}
	// One "20 MB" unit as the example writes it: 20 MB rounded to pages.
	unit := int64(20000000/4096) * 4096
	for at, want := range shapes {
		d := demands[at]
		if len(d) != 6 {
			t.Fatalf("Dbuf(%v) length %d", at, len(d))
		}
		for i := range want {
			if want[i] == 0 && d[i] != 0 {
				t.Errorf("Dbuf(%v)[%d] = %d, want 0", at, i+1, d[i])
			}
			if want[i] > 0 && d[i] != want[i]*unit {
				t.Errorf("Dbuf(%v)[%d] = %d, want %d units", at, i+1, d[i], want[i])
			}
		}
	}
}

func TestPaperFig6Decisions(t *testing.T) {
	at10, at20 := Fig6Decisions()
	if at10 != 0 {
		t.Errorf("D_reclaim(10s) = %d, want 0 (paper Fig 6a)", at10)
	}
	if at20 != int64(12.5*mb) {
		t.Errorf("D_reclaim(20s) = %d, want 12.5 MB (paper Fig 6b)", at20)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 10 {
		t.Fatalf("only %d experiments", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"evaluation", "fig4", "fig5", "fig6"} {
		if !seen[id] {
			t.Errorf("missing paper experiment %q", id)
		}
	}
	if _, err := ExperimentByID("evaluation"); err != nil {
		t.Errorf("ExperimentByID: %v", err)
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestWorkedExampleExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig4", "fig5", "fig6"} {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Errorf("%s: empty output", id)
		}
	}
}

func TestFig5TableShowsPaperReserve(t *testing.T) {
	e, err := ExperimentByID("fig5")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].String()
	if !strings.Contains(out, "20 MB") {
		t.Errorf("fig5 output missing the 20 MB reserve:\n%s", out)
	}
}

// TestFig7SmallScaleShape runs the headline comparison at reduced scale and
// checks the qualitative orderings the reproduction must preserve.
func TestFig7SmallScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	opt := Options{Seed: 1, Ops: 30000}
	for _, b := range []string{"Tiobench", "TPC-C"} {
		lazy, err := Run(b, Lazy(), opt)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := Run(b, Aggressive(), opt)
		if err != nil {
			t.Fatal(err)
		}
		// The paper's Fig. 2/7 trade-off: the aggressive policy must not
		// lose IOPS to lazy, and must cost WAF.
		if agg.IOPS < lazy.IOPS*0.95 {
			t.Errorf("%s: A-BGC IOPS %v below L-BGC %v", b, agg.IOPS, lazy.IOPS)
		}
		if agg.WAF <= lazy.WAF {
			t.Errorf("%s: A-BGC WAF %v not above L-BGC %v", b, agg.WAF, lazy.WAF)
		}
		if agg.FGCInvocations > lazy.FGCInvocations {
			t.Errorf("%s: A-BGC FGC %d above L-BGC %d", b, agg.FGCInvocations, lazy.FGCInvocations)
		}
	}
}

// TestJITBeatsLazyOnFGC checks the core claim at full workload scale:
// JIT-GC avoids foreground GC better than L-BGC on a buffered-heavy
// workload while amplifying writes less than A-BGC.
func TestJITBeatsLazyOnFGC(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	opt := Options{Seed: 1} // full default scale: the steady-state claim
	lazy, err := Run("YCSB", Lazy(), opt)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Run("YCSB", Aggressive(), opt)
	if err != nil {
		t.Fatal(err)
	}
	jit, err := Run("YCSB", JIT(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if jit.FGCInvocations > lazy.FGCInvocations {
		t.Errorf("JIT FGC %d above L-BGC %d", jit.FGCInvocations, lazy.FGCInvocations)
	}
	if jit.WAF >= agg.WAF {
		t.Errorf("JIT WAF %v not below A-BGC %v", jit.WAF, agg.WAF)
	}
	if !jit.Predictive || jit.PredictionAccuracy <= 0 {
		t.Error("JIT accuracy not reported")
	}
}

func TestRunOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("two-pass experiment")
	}
	opt := Options{Seed: 1, Ops: 20000}
	// The evaluation grid's oracle arm: record under A-BGC, then replay.
	// YCSB's demand lands at flusher ticks, so the recorded series stays
	// aligned across passes (direct-heavy workloads drift more).
	_, recorder, err := runBenchmark("YCSB", Aggressive().Factory(), opt)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _, err := runBenchmark("YCSB", oraclePolicy(recorder.IntervalActuals()), opt)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Policy != "Oracle" || oracle.Requests == 0 {
		t.Errorf("oracle results = %+v", oracle)
	}
	if !oracle.Predictive {
		t.Error("oracle not scored as predictive")
	}
	// Perfect demand knowledge must avoid foreground GC better than the
	// lazy policy (some slack allowed: closed-loop timing drifts between
	// the recording pass and the replay).
	lazy, err := Run("YCSB", Lazy(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.FGCInvocations > lazy.FGCInvocations {
		t.Errorf("oracle FGC %d above L-BGC %d", oracle.FGCInvocations, lazy.FGCInvocations)
	}
}

// TestTable3ArmsMeasureAvoidance checks at full scale that Table 3's two
// arms can disagree: SIP-greedy filters on YCSB and Tiobench and there
// migrates fewer listed pages than greedy with the same list installed,
// while greedy never filters and TPC-C, which lists almost nothing, shows
// no difference. At the golden scale every cell is zero, so the golden
// alone could not tell the arms apart.
func TestTable3ArmsMeasureAvoidance(t *testing.T) {
	if testing.Short() {
		t.Skip("six full-scale runs")
	}
	opt := Options{Seed: 1}
	for _, b := range []string{"YCSB", "Tiobench", "TPC-C"} {
		sip, err := Run(b, JIT(), opt)
		if err != nil {
			t.Fatal(err)
		}
		greedy, _, err := runBenchmark(b, armPolicy(armGreedy), opt)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.FilteredVictimPct != 0 {
			t.Errorf("%s: greedy arm filtered %.1f%% of selections, want 0", b, greedy.FilteredVictimPct)
		}
		avoided := greedy.WastedMigrations - sip.WastedMigrations
		if b == "TPC-C" {
			if avoided != 0 {
				t.Errorf("%s: avoided %d wasted migrations (%d SIP-greedy, %d greedy), want 0",
					b, avoided, sip.WastedMigrations, greedy.WastedMigrations)
			}
			continue
		}
		if sip.FilteredVictimPct <= 0 {
			t.Errorf("%s: SIP-greedy arm filtered no selection", b)
		}
		if avoided <= 0 {
			t.Errorf("%s: avoided %d wasted migrations (%d SIP-greedy, %d greedy), want > 0",
				b, avoided, sip.WastedMigrations, greedy.WastedMigrations)
		}
	}
}

// TestAblationClaims checks the two design choices the paper's ablations
// argue for, on evaluation's ablation arms at its golden scale. The golden
// pins seed 1's cells but not the claims they support: regenerated after a
// change that flips a claim, it would pass. This test holds the claims
// themselves, at seeds 1–3, on the benchmarks where all three agree.
// Seed 1's cells are read from the committed evaluation golden, which
// TestExperimentGoldens holds to a fresh run, so they are simulated once
// per test binary; seeds 2 and 3 are simulated here.
func TestAblationClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("24 runs at evaluation's golden scale")
	}
	buffered, direct := []string{"YCSB", "Postmark", "Filebench"}, []string{"Tiobench", "TPC-C"}
	var cells []ablationCell
	for _, b := range buffered {
		cells = append(cells, ablationCell{b, armJIT}, ablationCell{b, armStrict})
	}
	for _, b := range direct {
		cells = append(cells, ablationCell{b, armPct50}, ablationCell{b, armJIT}, ablationCell{b, armPct95})
	}
	seeds := []int64{2, 3}
	runs, err := gridCells(Options{}, len(seeds)*len(cells), func(i int) (Results, error) {
		c := cells[i%len(cells)]
		res, _, err := runBenchmark(c.bench, armPolicy(c.arm), Options{Seed: seeds[i/len(cells)], Ops: evaluationOps})
		return res, err
	})
	if err != nil {
		t.Fatal(err)
	}
	bySeed := map[int64]map[ablationCell]Results{1: goldenAblationCells(t)}
	for si, seed := range seeds {
		got := map[ablationCell]Results{}
		for ci, c := range cells {
			got[c] = runs[si*len(cells)+ci]
		}
		bySeed[seed] = got
	}
	for _, seed := range []int64{1, 2, 3} {
		got := bySeed[seed]
		for _, b := range buffered {
			relaxed, strict := got[ablationCell{b, armJIT}], got[ablationCell{b, armStrict}]
			if strict.FGCInvocations <= relaxed.FGCInvocations {
				t.Errorf("§3.2.1, seed %d, %s: strict τ_flush FGC %d not above relaxed %d",
					seed, b, strict.FGCInvocations, relaxed.FGCInvocations)
			}
			if relaxed.PredictionAccuracy <= strict.PredictionAccuracy {
				t.Errorf("§3.2.1, seed %d, %s: relaxed τ_flush accuracy %.3f not above strict %.3f",
					seed, b, relaxed.PredictionAccuracy, strict.PredictionAccuracy)
			}
		}
		for _, b := range direct {
			p50, p80, p95 := got[ablationCell{b, armPct50}], got[ablationCell{b, armJIT}], got[ablationCell{b, armPct95}]
			if !(p50.FGCInvocations > p80.FGCInvocations && p80.FGCInvocations >= p95.FGCInvocations) {
				t.Errorf("§3.2.2, seed %d, %s: FGC at CDH 50/80/95%% = %d/%d/%d, want 50%% > 80%% ≥ 95%%",
					seed, b, p50.FGCInvocations, p80.FGCInvocations, p95.FGCInvocations)
			}
			if !(p50.WAF < p80.WAF && p80.WAF <= p95.WAF) {
				t.Errorf("§3.2.2, seed %d, %s: WAF at CDH 50/80/95%% = %.3f/%.3f/%.3f, want 50%% < 80%% ≤ 95%%",
					seed, b, p50.WAF, p80.WAF, p95.WAF)
			}
		}
	}
}

// ablationCell is one benchmark × arm cell of the evaluation grid.
type ablationCell struct {
	bench string
	arm   int
}

// goldenAblationCells reads seed 1's ablation cells from the two ablation
// tables of the committed evaluation golden: WAF and FGC of the CDH
// percentile arms, FGC and prediction accuracy of the relaxed (armJIT) and
// strict τ_flush arms. Each value is as rendered (WAF to 0.001, accuracy to
// 0.1%), so a strict inequality between two of them holds between the
// values they round.
func goldenAblationCells(t *testing.T) map[ablationCell]Results {
	t.Helper()
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("evaluation golden: %v", err)
		}
		return v
	}
	cells := map[ablationCell]Results{}
	pctArm := map[string]int{"50%": armPct50, "80%": armJIT, "95%": armPct95}
	for _, row := range goldenRows(t, "evaluation", percentileTable(nil, nil).Title) {
		c := ablationCell{row[0], pctArm[row[1]]}
		r := cells[c]
		r.WAF, r.FGCInvocations = num(row[3]), int64(num(row[4]))
		cells[c] = r
	}
	for _, row := range goldenRows(t, "evaluation", flushTable(nil, nil).Title) {
		for i, arm := range []int{armJIT, armStrict} {
			c := ablationCell{row[0], arm}
			r := cells[c]
			r.FGCInvocations, r.PredictionAccuracy = int64(num(row[1+i])), num(row[3+i])/100
			cells[c] = r
		}
	}
	return cells
}

// goldenRows returns the rows of the table titled title in experiment id's
// committed golden rendering, each split into its cells (none of which
// holds a space).
func goldenRows(t *testing.T, id, title string) [][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(data), "\n"+title+"\n")
	if !ok {
		t.Fatalf("%s golden holds no table %q", id, title)
	}
	var rows [][]string
	for _, line := range strings.Split(body, "\n")[2:] { // past the header and its rule
		if line == "" {
			return rows
		}
		rows = append(rows, strings.Fields(line))
	}
	return rows
}

func TestTrimReachesDevice(t *testing.T) {
	res, err := Run("Postmark", Lazy(), smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if res.TrimmedPages == 0 {
		t.Error("Postmark deletes produced no TRIMs at the device")
	}
}

func TestCacheReadHitsCounted(t *testing.T) {
	res, err := Run("YCSB", Lazy(), smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheReadHits == 0 {
		t.Error("no page-cache read hits on a zipfian read/update workload")
	}
}

// requestCounter is a sink counting request completions.
type requestCounter struct{ n int64 }

func (c *requestCounter) Emit(ev telemetry.Event) {
	if ev.Type == telemetry.EvRequest {
		c.n++
	}
}

func (c *requestCounter) Close() error { return nil }

// TestRunUntilWearOut pins a wear-out replay to the host writes the device
// served before death and checks that the replay is one pass: the trace
// holds the requests of the rounds up to the one the device died in, and
// nothing else.
func TestRunUntilWearOut(t *testing.T) {
	if testing.Short() {
		t.Skip("long lifetime run")
	}
	const ops = 15000
	reqs := &requestCounter{}
	res, err := RunUntilWearOut("TPC-C", Lazy(), 10, Options{Seed: 1, Ops: ops, Tracer: telemetry.New(reqs)})
	if err != nil {
		t.Fatal(err)
	}
	if res.HostPagesWritten != 149293 || res.Rounds != 11 || res.RetiredBlocks == 0 {
		t.Errorf("lifetime result = %+v, want 149293 host pages written in round 11", res)
	}
	if res.WAF < 1 {
		t.Errorf("WAF at death = %v", res.WAF)
	}
	if res.Policy != "L-BGC" || res.Workload != "TPC-C" {
		t.Errorf("labels = %q/%q", res.Policy, res.Workload)
	}
	if lo, hi := int64(res.Rounds-1)*ops, int64(res.Rounds)*ops; reqs.n <= lo || reqs.n > hi {
		t.Errorf("traced %d request events, want (%d, %d]", reqs.n, lo, hi)
	}

	if _, err := RunUntilWearOut("TPC-C", Lazy(), 0, Options{}); err == nil {
		t.Error("zero endurance limit accepted")
	}
	_, err = RunUntilWearOut("YCSB", Lazy(), 1<<40, Options{Seed: 1, Ops: 20})
	if err == nil || !strings.Contains(err.Error(), "survived 64 rounds") {
		t.Errorf("device that cannot wear out: err = %v, want the survived-64-rounds error", err)
	}
}

func TestGenerateStream(t *testing.T) {
	reqs, cfg, err := GenerateStream("YCSB", Options{Seed: 1, Ops: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 5000 {
		t.Errorf("requests = %d", len(reqs))
	}
	if cfg.PreconditionPages == 0 {
		t.Error("config missing precondition")
	}
	if _, _, err := GenerateStream("nope", Options{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestTimelineRecording checks the timeline a run's events rebuild: one
// point per write-back tick, in time order, every value in range.
func TestTimelineRecording(t *testing.T) {
	sink := &metrics.TimelineSink{}
	if _, err := Run("Postmark", JIT(), Options{Seed: 1, Ops: 8000, Tracer: telemetry.New(sink)}); err != nil {
		t.Fatal(err)
	}
	tl := sink.Merged()
	if len(tl) == 0 {
		t.Fatal("no timeline samples")
	}
	var prev time.Duration = -1
	for i, p := range tl {
		if p.T <= prev {
			t.Fatalf("sample %d time %v not increasing", i, p.T)
		}
		prev = p.T
		if p.FreeBytes < 0 || p.WAF < 1 || p.IdleFraction < 0 || p.IdleFraction > 1 {
			t.Errorf("sample %d out of range: %+v", i, p)
		}
	}
}

// TestStreamingLatencyOnlyWhenAsked pins the recorder selection: a run
// keeps exact percentiles at any length, 10⁶ requests included, and
// streams only when its Config asks.
func TestStreamingLatencyOnlyWhenAsked(t *testing.T) {
	cfgFor := func(o Options) sim.Config {
		cfg, _ := o.withDefaults().simConfig()
		return cfg
	}
	for _, ops := range []int{4000, 0, 1_000_000} {
		if cfgFor(Options{Ops: ops}).StreamingLatency {
			t.Errorf("Ops=%d run switched to streaming latency", ops)
		}
	}
	explicit := sim.DefaultConfig()
	explicit.StreamingLatency = true
	if !cfgFor(Options{Ops: 100, Config: &explicit}).StreamingLatency {
		t.Error("explicit streaming config was overridden")
	}
}

// TestRebuildUnderFireTraced: array's rebuild-under-fire study streams its
// events through the experiment's tracer, so a mirror cell's trace shows
// member 1 degrading and a spare rebuild starting.
func TestRebuildUnderFireTraced(t *testing.T) {
	ring, err := telemetry.NewRingSink(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 1, Ops: 2000, Tracer: telemetry.New(ring)}.withDefaults()
	if _, err := runRebuildUnderFire(array.RedundancyMirror, opt); err != nil {
		t.Fatal(err)
	}
	if ring.Total() > int64(len(ring.Events())) {
		t.Fatalf("ring overflowed: %d events emitted", ring.Total())
	}
	var degraded, rebuild bool
	for _, ev := range ring.Events() {
		degraded = degraded || ev.Type == telemetry.EvDeviceDegraded && ev.Dev == 1
		rebuild = rebuild || ev.Type == telemetry.EvRebuild && ev.Action == telemetry.ActionStart
	}
	if !degraded || !rebuild {
		t.Errorf("member 1 degraded traced %v, rebuild start traced %v; want both", degraded, rebuild)
	}
}

// TestNormCellGuardsDegenerateBaselines covers the report-table guard: a
// zero baseline IOPS/WAF produces NaN or Inf ratios, which must surface as
// "n/a" instead of leaking into the tables.
func TestNormCellGuardsDegenerateBaselines(t *testing.T) {
	var zero, r Results
	r.IOPS, r.WAF = 1000, 1.5
	if got := normCell(r.NormalizedIOPS(zero)); got != "n/a" {
		t.Errorf("NaN cell = %q, want n/a", got)
	}
	if got := normCell(math.Inf(1)); got != "n/a" {
		t.Errorf("Inf cell = %q, want n/a", got)
	}
	if got := normCell(1.234); got != "1.234" {
		t.Errorf("finite cell = %q", got)
	}
	if got := normLifetimeCell(5, 0); got != "n/a" {
		t.Errorf("zero lifetime baseline = %q, want n/a", got)
	}
}
