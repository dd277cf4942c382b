package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"jitgc/internal/core"
	"jitgc/internal/ftl"
	"jitgc/internal/nand"
	"jitgc/internal/pagecache"
	"jitgc/internal/trace"
)

// tinyConfig builds a small but GC-capable simulation: 32 blocks × 16
// pages, 1/3 OP, fast flusher timing (p = 1 s, τ_expire = 6 s) so tests
// exercise many write-back intervals quickly.
func tinyConfig() Config {
	fcfg := ftl.Config{
		Geometry: nand.Geometry{
			Channels: 2, ChipsPerChannel: 1, BlocksPerChip: 16,
			PagesPerBlock: 16, PageSize: 4096,
		},
		OPRatio: 0.34,
	}
	ccfg := pagecache.Config{
		PageSize:      4096,
		CapacityPages: 4096,
		FlusherPeriod: time.Second,
		Expire:        6 * time.Second,
		FlushRatio:    0.8,
	}
	return Config{FTL: fcfg, Cache: ccfg, DrainCache: true}
}

func lazyFactory(env *Env) (core.Policy, error) { return core.NewLazyBGC(env.OPBytes()), nil }

func newSim(t *testing.T, cfg Config, factory PolicyFactory) *Simulator {
	t.Helper()
	s, err := New(cfg, factory)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	cfg := tinyConfig()
	cfg.Cache.PageSize = 8192
	if err := cfg.Validate(); err == nil {
		t.Error("accepted mismatched page sizes")
	}
	cfg = tinyConfig()
	cfg.PreconditionPages = -1
	if err := cfg.Validate(); err == nil {
		t.Error("accepted negative precondition")
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := New(tinyConfig(), func(*Env) (core.Policy, error) { return nil, wantErr })
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v", err)
	}
}

func TestBufferedWritesReachDeviceViaFlusher(t *testing.T) {
	s := newSim(t, tinyConfig(), lazyFactory)
	reqs := []trace.Request{
		{Time: 100 * time.Millisecond, Kind: trace.BufferedWrite, LPN: 0, Pages: 8},
	}
	res, err := s.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 {
		t.Errorf("requests = %d", res.Requests)
	}
	// DrainCache guarantees the 8 pages eventually flush.
	if res.HostPrograms != 8 || res.BufferedPages != 8 {
		t.Errorf("programs = %d buffered = %d, want 8", res.HostPrograms, res.BufferedPages)
	}
	if res.DirectPages != 0 {
		t.Errorf("direct pages = %d", res.DirectPages)
	}
	// A buffered write completes at RAM speed.
	if res.MeanLatency > time.Millisecond {
		t.Errorf("buffered write latency = %v", res.MeanLatency)
	}
}

func TestDirectWritesAreImmediate(t *testing.T) {
	cfg := tinyConfig()
	cfg.DrainCache = false
	s := newSim(t, cfg, lazyFactory)
	reqs := []trace.Request{
		{Time: 0, Kind: trace.DirectWrite, LPN: 0, Pages: 4},
	}
	res, err := s.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostPrograms != 4 || res.DirectPages != 4 {
		t.Errorf("programs = %d direct = %d", res.HostPrograms, res.DirectPages)
	}
	// Four programs striped over two channels.
	want := time.Duration(float64(4*s.ftl.Device().Timing().ProgramCost()) / 2)
	if res.MeanLatency != want {
		t.Errorf("latency = %v, want %v", res.MeanLatency, want)
	}
}

func TestReadsAreServed(t *testing.T) {
	s := newSim(t, tinyConfig(), lazyFactory)
	reqs := []trace.Request{
		{Time: 0, Kind: trace.DirectWrite, LPN: 5, Pages: 1},
		{Time: time.Second, Kind: trace.Read, LPN: 5, Pages: 1},
	}
	res, err := s.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 {
		t.Errorf("requests = %d", res.Requests)
	}
}

func TestTraceBeyondCapacityRejected(t *testing.T) {
	s := newSim(t, tinyConfig(), lazyFactory)
	reqs := []trace.Request{
		{Time: 0, Kind: trace.DirectWrite, LPN: s.FTL().UserPages(), Pages: 1},
	}
	if _, err := s.Run(reqs); !errors.Is(err, ErrTraceBeyondCapacity) {
		t.Errorf("err = %v, want ErrTraceBeyondCapacity", err)
	}
}

func TestPreconditionFillsAndResets(t *testing.T) {
	cfg := tinyConfig()
	cfg.PreconditionPages = 100
	s := newSim(t, cfg, lazyFactory)
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostPrograms != 0 {
		t.Errorf("precondition writes leaked into stats: %d", res.HostPrograms)
	}
	if got := s.FTL().FreePages(); got >= int64(cfg.FTL.Geometry.TotalPages()) {
		t.Error("precondition did not consume space")
	}
	cfg.PreconditionPages = s.FTL().UserPages()
	if _, err := New(cfg, lazyFactory); err != nil {
		t.Errorf("precondition of the whole user capacity rejected: %v", err)
	}
	cfg.PreconditionPages++
	if _, err := New(cfg, lazyFactory); err == nil {
		t.Error("precondition one page past the user capacity accepted")
	}
}

func TestClosedLoopArrivalsFollowCompletions(t *testing.T) {
	cfg := tinyConfig()
	cfg.DrainCache = false
	s := newSim(t, cfg, lazyFactory)
	// Two direct writes with zero think time: the second starts when the
	// first completes, so total time ≈ 2 × service.
	reqs := []trace.Request{
		{Time: 0, Kind: trace.DirectWrite, LPN: 0, Pages: 2},
		{Time: 0, Kind: trace.DirectWrite, LPN: 2, Pages: 2},
	}
	res, err := s.RunClosedLoop(reqs)
	if err != nil {
		t.Fatal(err)
	}
	service := time.Duration(float64(2*s.ftl.Device().Timing().ProgramCost()) / 2)
	if res.SimTime < 2*service {
		t.Errorf("sim time %v < 2×service %v", res.SimTime, 2*service)
	}
	if res.MeanLatency != service {
		t.Errorf("closed-loop latency = %v, want %v (no queueing)", res.MeanLatency, service)
	}
}

func TestClosedLoopValidatesRequests(t *testing.T) {
	s := newSim(t, tinyConfig(), lazyFactory)
	if _, err := s.RunClosedLoop([]trace.Request{{Time: 0, Kind: trace.Read, LPN: 0, Pages: 0}}); err == nil {
		t.Error("invalid request accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		cfg := tinyConfig()
		cfg.PreconditionPages = 300
		s := newSim(t, cfg, lazyFactory)
		var reqs []trace.Request
		for i := 0; i < 400; i++ {
			kind := trace.BufferedWrite
			if i%5 == 0 {
				kind = trace.DirectWrite
			}
			reqs = append(reqs, trace.Request{
				Time:  time.Duration(i%7) * 10 * time.Millisecond,
				Kind:  kind,
				LPN:   int64((i * 37) % 300),
				Pages: int32(i%3 + 1),
			})
		}
		res, err := s.RunClosedLoop(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic runs:\n%s\n%s", a, b)
	}
}

func TestBGCRunsDuringIdle(t *testing.T) {
	cfg := tinyConfig()
	cfg.PreconditionPages = 300 // mostly full device
	// Aggressive policy wants a large reserve immediately.
	factory := func(env *Env) (core.Policy, error) {
		return core.NewAggressiveBGC(env.OPBytes()), nil
	}
	s := newSim(t, cfg, factory)
	// One write to dirty state, then a long idle stretch (ticks only).
	var reqs []trace.Request
	for i := 0; i < 200; i++ {
		reqs = append(reqs, trace.Request{
			Time:  time.Duration(i) * 20 * time.Millisecond,
			Kind:  trace.DirectWrite,
			LPN:   int64(i % 290),
			Pages: 1,
		})
	}
	// Long tail of think time lets the flusher tick several times.
	reqs = append(reqs, trace.Request{Time: 10 * time.Second, Kind: trace.Read, LPN: 0, Pages: 1})
	res, err := s.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.BGCCollections == 0 {
		t.Error("no background collections despite idle time and a shortfall")
	}
}

func TestFGCStallsAreCharged(t *testing.T) {
	cfg := tinyConfig()
	cfg.PreconditionPages = 330 // nearly full (user ≈ 382 pages… leave room)
	s := newSim(t, cfg, func(*Env) (core.Policy, error) { return core.NewNoBGC(), nil })
	var reqs []trace.Request
	for i := 0; i < 600; i++ {
		// Strided overwrites scatter invalidations across blocks so GC
		// victims still hold valid pages (migration work).
		reqs = append(reqs, trace.Request{
			Kind:  trace.DirectWrite,
			LPN:   int64(i*37) % 330,
			Pages: 1,
		})
	}
	res, err := s.RunClosedLoop(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.FGCInvocations == 0 {
		t.Fatal("no FGC under no-BGC policy on a full device")
	}
	// Foreground GC is charged serially: max latency must include at least
	// one un-striped collection (≫ a single striped program).
	if res.MaxLatency < s.ftl.Device().Timing().EraseBlock {
		t.Errorf("max latency %v does not reflect serial FGC", res.MaxLatency)
	}
	if res.WAF <= 1 {
		t.Errorf("WAF = %v", res.WAF)
	}
}

func TestIdleFractionTracksLoad(t *testing.T) {
	s := newSim(t, tinyConfig(), lazyFactory)
	if s.idleFrac != 1 {
		t.Fatalf("initial idle fraction = %v", s.idleFrac)
	}
	// Simulate a busy interval: host busy for 80% of the period.
	s.hostBusy = 800 * time.Millisecond
	s.updateIdleFraction()
	if s.idleFrac >= 1 || s.idleFrac < 0.5 {
		t.Errorf("idle fraction after one busy interval = %v (EMA from 1.0 toward 0.2)", s.idleFrac)
	}
	prev := s.idleFrac
	// An idle interval pulls it back up.
	s.updateIdleFraction()
	if s.idleFrac <= prev {
		t.Errorf("idle fraction did not recover: %v -> %v", prev, s.idleFrac)
	}
}

// TestAccuracyReportedOnlyForPredictivePolicies: every policy constructor's
// run reports Predictive exactly when the policy forecasts demand.
func TestAccuracyReportedOnlyForPredictivePolicies(t *testing.T) {
	for _, tc := range []struct {
		name       string
		factory    PolicyFactory
		predictive bool
	}{
		{"L-BGC", lazyFactory, false},
		{"A-BGC", func(env *Env) (core.Policy, error) { return core.NewAggressiveBGC(env.OPBytes()), nil }, false},
		{"0.75OP", func(env *Env) (core.Policy, error) { return core.NewFixedBGC(env.OPBytes(), 0.75), nil }, false},
		{"no-BGC", func(*Env) (core.Policy, error) { return core.NewNoBGC(), nil }, false},
		{"ADP-GC", func(env *Env) (core.Policy, error) { return core.NewADPGC(env.WriteBack) }, true},
		{"TRIM-OP", func(env *Env) (core.Policy, error) {
			return core.NewTrimOP(env.WriteBack, env.OPBytes())
		}, true},
		{"JIT-GC", jitFactory, true},
		{"Oracle", func(env *Env) (core.Policy, error) { return core.NewOracle([]int64{1 << 20}, env.WriteBack) }, true},
	} {
		s := newSim(t, tinyConfig(), tc.factory)
		res, err := s.Run([]trace.Request{{Time: 0, Kind: trace.BufferedWrite, LPN: 0, Pages: 4}})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Policy != tc.name || res.Predictive != tc.predictive {
			t.Errorf("%s: policy %q predictive %v, want %v", tc.name, res.Policy, res.Predictive, tc.predictive)
		}
	}
}

// observation is one Policy.Observe call.
type observation struct {
	kind  trace.Kind
	bytes int64
}

func (o observation) String() string { return fmt.Sprintf("%v %d B", o.kind, o.bytes) }

// observeRecorder is a no-BGC policy that logs what it is shown.
type observeRecorder struct {
	core.FixedReserve
	seen []observation
}

func (r *observeRecorder) Observe(kind trace.Kind, bytes int64) {
	r.seen = append(r.seen, observation{kind, bytes})
}

// TestObserveRouting pins which Observe kind each event hands the policy:
// host direct writes alone are trace.DirectWrite (rebuild traffic must not
// reach JIT-GC's direct-write CDH), every other device write is
// trace.BufferedWrite, host discards are trace.Trim, and reads and
// maintenance discards are not shown at all.
func TestObserveRouting(t *testing.T) {
	rec := &observeRecorder{}
	s := newSim(t, tinyConfig(), func(*Env) (core.Policy, error) { return rec, nil })
	const page = 4096
	steps := []struct {
		name string
		do   func() error
		want []observation
	}{
		{"host direct write", func() error {
			_, err := s.StepRequest(trace.Request{Time: 0, Kind: trace.DirectWrite, LPN: 0, Pages: 2})
			return err
		}, []observation{{trace.DirectWrite, 2 * page}}},
		{"host read", func() error {
			_, err := s.StepRequest(trace.Request{Time: time.Millisecond, Kind: trace.Read, LPN: 0, Pages: 2})
			return err
		}, nil},
		{"buffered write", func() error {
			_, err := s.StepRequest(trace.Request{Time: 2 * time.Millisecond, Kind: trace.BufferedWrite, LPN: 10, Pages: 3})
			return err
		}, nil},
		{"write-back", func() error { return s.Tick(7 * time.Second) },
			[]observation{{trace.BufferedWrite, 3 * page}}},
		{"rebuild write", func() error {
			_, err := s.RebuildWrite(8*time.Second, 20, 4)
			return err
		}, []observation{{trace.BufferedWrite, 4 * page}}},
		{"host trim", func() error {
			_, err := s.StepRequest(trace.Request{Time: 9 * time.Second, Kind: trace.Trim, LPN: 0, Pages: 1})
			return err
		}, []observation{{trace.Trim, page}}},
		{"rebuild trim", func() error { return s.RebuildTrim(10*time.Second, 20, 4) }, nil},
	}
	for _, st := range steps {
		rec.seen = nil
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !slices.Equal(rec.seen, st.want) {
			t.Errorf("%s: observed %v, want %v", st.name, rec.seen, st.want)
		}
	}
}

func TestEnvAccessors(t *testing.T) {
	s := newSim(t, tinyConfig(), lazyFactory)
	if s.Cache() == nil || s.FTL() == nil || s.Policy() == nil {
		t.Error("accessors returned nil")
	}
	if s.env.OPBytes() != s.FTL().OPBytes() {
		t.Error("env OP bytes mismatch")
	}
	if s.env.WriteBack.Nwb() != 6 {
		t.Errorf("Nwb = %d", s.env.WriteBack.Nwb())
	}
}

func TestTrimRequests(t *testing.T) {
	cfg := tinyConfig()
	cfg.DrainCache = false
	s := newSim(t, cfg, lazyFactory)
	reqs := []trace.Request{
		{Time: 0, Kind: trace.DirectWrite, LPN: 0, Pages: 4},
		{Time: time.Second, Kind: trace.BufferedWrite, LPN: 10, Pages: 2},
		{Time: 2 * time.Second, Kind: trace.Trim, LPN: 0, Pages: 4},
		{Time: 2 * time.Second, Kind: trace.Trim, LPN: 10, Pages: 2},
	}
	res, err := s.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 4 {
		t.Errorf("requests = %d", res.Requests)
	}
	if res.TrimmedPages != 4 {
		t.Errorf("trimmed = %d, want the 4 flash-resident pages", res.TrimmedPages)
	}
	// The buffered pages were dropped from the cache before ever reaching
	// the device.
	if s.Cache().DirtyPageCount() != 0 {
		t.Error("trimmed pages still dirty in cache")
	}
	if s.FTL().MappedPPN(0) != -1 {
		t.Error("trimmed page still mapped")
	}
}

func TestReadsHitDirtyCache(t *testing.T) {
	cfg := tinyConfig()
	cfg.DrainCache = false
	s := newSim(t, cfg, lazyFactory)
	reqs := []trace.Request{
		{Time: 0, Kind: trace.BufferedWrite, LPN: 7, Pages: 1},
		{Time: time.Millisecond, Kind: trace.Read, LPN: 7, Pages: 1},
	}
	res, err := s.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheReadHits != 1 {
		t.Errorf("cache hits = %d, want 1", res.CacheReadHits)
	}
	// Both requests complete at RAM speed.
	if res.MaxLatency > time.Millisecond {
		t.Errorf("max latency = %v, want RAM speed", res.MaxLatency)
	}
}

func TestBGCPreemptionConservesWork(t *testing.T) {
	cfg := tinyConfig()
	cfg.PreconditionPages = 300
	factory := func(env *Env) (core.Policy, error) {
		return core.NewAggressiveBGC(env.OPBytes()), nil
	}
	s := newSim(t, cfg, factory)
	// Tight arrival stream: BGC chunks must be preempted, never blocking
	// a request by more than its own service time.
	var reqs []trace.Request
	for i := 0; i < 300; i++ {
		reqs = append(reqs, trace.Request{
			Time:  time.Duration(i) * 3 * time.Millisecond,
			Kind:  trace.Read,
			LPN:   int64(i % 290),
			Pages: 1,
		})
	}
	res, err := s.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// A read costs ~(90+50)µs/2; background GC must not inflate read
	// latency beyond a couple of service quanta.
	if res.P99Latency > 2*time.Millisecond {
		t.Errorf("p99 read latency %v under background GC (preemption broken?)", res.P99Latency)
	}
}

func TestDrainCompletesWAFAccounting(t *testing.T) {
	run := func(drain bool) int64 {
		cfg := tinyConfig()
		cfg.DrainCache = drain
		s := newSim(t, cfg, lazyFactory)
		res, err := s.Run([]trace.Request{
			{Time: 0, Kind: trace.BufferedWrite, LPN: 0, Pages: 32},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.HostPrograms
	}
	if got := run(false); got != 0 {
		t.Errorf("no-drain programs = %d, want 0 (still dirty)", got)
	}
	if got := run(true); got != 32 {
		t.Errorf("drained programs = %d, want 32", got)
	}
}

func TestOpenLoopRequiresSortedTrace(t *testing.T) {
	s := newSim(t, tinyConfig(), lazyFactory)
	reqs := []trace.Request{
		{Time: time.Second, Kind: trace.Read, LPN: 0, Pages: 1},
		{Time: 0, Kind: trace.Read, LPN: 0, Pages: 1},
	}
	if _, err := s.Run(reqs); err == nil {
		t.Error("unsorted open-loop trace accepted")
	}
}
