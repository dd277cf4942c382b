package tenant

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/array"
	"jitgc/internal/core"
	"jitgc/internal/ftl"
	"jitgc/internal/nand"
	"jitgc/internal/pagecache"
	"jitgc/internal/sim"
	"jitgc/internal/trace"
)

// tinyDevice builds a small but GC-capable shared device: 32 blocks × 16
// pages, 1/3 OP, fast flusher timing so short runs cross many write-back
// intervals.
func tinyDevice() sim.Config {
	fcfg := ftl.Config{
		Geometry: nand.Geometry{
			Channels: 2, ChipsPerChannel: 1, BlocksPerChip: 16,
			PagesPerBlock: 16, PageSize: 4096,
		},
		Timing:           nand.DefaultTimingMLC(),
		OPRatio:          0.34,
		FreeBlockReserve: 2,
		Selector:         ftl.Greedy{},
	}
	ccfg := pagecache.Config{
		PageSize:      4096,
		CapacityPages: 4096,
		FlusherPeriod: 100 * time.Millisecond,
		Expire:        600 * time.Millisecond,
		FlushRatio:    0.8,
	}
	return sim.Config{FTL: fcfg, Cache: ccfg, DrainCache: true}
}

func lazyFactory(env *sim.Env) (core.Policy, error) { return core.NewLazyBGC(env.OPBytes()), nil }

func tinyEngineConfig() Config {
	return Config{
		Tenants:         12,
		OpsPerTenant:    40,
		Arrival:         MMPP,
		Rate:            30, // per tenant: hot enough to backlog the tiny device
		QueueDepth:      8,
		WorkingSetPages: 240,
		Seed:            1,
		Device:          tinyDevice(),
	}
}

// TestEngineConservation runs a small hot multi-tenant workload end to end
// and checks the flow-conservation ledger: every synthesized arrival is
// offered, every offered arrival is admitted or dropped, and every admitted
// request completes (the run drains all queues before finishing). Per-tenant
// and per-class breakdowns must sum to the totals.
func TestEngineConservation(t *testing.T) {
	cfg := tinyEngineConfig()
	eng, err := New(cfg, lazyFactory)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantArrivals := int64(cfg.Tenants * cfg.OpsPerTenant)
	if res.Arrivals != wantArrivals {
		t.Errorf("arrivals %d, want %d", res.Arrivals, wantArrivals)
	}
	if res.Arrivals != res.Admitted+res.Dropped {
		t.Errorf("arrivals %d ≠ admitted %d + dropped %d", res.Arrivals, res.Admitted, res.Dropped)
	}
	if res.Completed != res.Admitted {
		t.Errorf("completed %d ≠ admitted %d after full drain", res.Completed, res.Admitted)
	}
	var byTenant, byClass, violTenant int64
	for _, tr := range res.PerTenant {
		byTenant += tr.Completed
		violTenant += tr.Violations
		if tr.Arrivals != tr.Completed+tr.Dropped {
			t.Errorf("tenant %d: arrivals %d ≠ completed %d + dropped %d",
				tr.Tenant, tr.Arrivals, tr.Completed, tr.Dropped)
		}
	}
	for _, c := range res.PerClass {
		byClass += c.Completed
	}
	if byTenant != res.Completed || byClass != res.Completed {
		t.Errorf("per-tenant sum %d / per-class sum %d ≠ total completed %d",
			byTenant, byClass, res.Completed)
	}
	if violTenant != res.Violations {
		t.Errorf("per-tenant violations %d ≠ total %d", violTenant, res.Violations)
	}
	if got := int64(res.Hist.Count()); got != res.Completed {
		t.Errorf("merged histogram holds %d samples, want %d", got, res.Completed)
	}
	if res.PeakQueueDepth < 1 || res.PeakQueueDepth > cfg.QueueDepth {
		t.Errorf("peak queue depth %d outside [1, %d]", res.PeakQueueDepth, cfg.QueueDepth)
	}
	if res.Span <= 0 {
		t.Errorf("non-positive span %v", res.Span)
	}
}

// TestEngineDeterministic runs the same configuration twice and requires
// identical results: the engine must be a pure function of its seed.
func TestEngineDeterministic(t *testing.T) {
	run := func() Results {
		eng, err := New(tinyEngineConfig(), lazyFactory)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Span != b.Span || a.Dropped != b.Dropped || a.Violations != b.Violations ||
		a.Completed != b.Completed || a.SLOMet != b.SLOMet ||
		a.Hist.Quantile(0.999) != b.Hist.Quantile(0.999) ||
		a.Device.WAF != b.Device.WAF {
		t.Errorf("repeated runs differ:\n  a: span %v dropped %d viol %d p999 %v WAF %v\n  b: span %v dropped %d viol %d p999 %v WAF %v",
			a.Span, a.Dropped, a.Violations, time.Duration(a.Hist.Quantile(0.999)), a.Device.WAF,
			b.Span, b.Dropped, b.Violations, time.Duration(b.Hist.Quantile(0.999)), b.Device.WAF)
	}
	for i := range a.PerTenant {
		if a.PerTenant[i] != b.PerTenant[i] {
			t.Errorf("tenant %d differs between runs: %+v vs %+v", i, a.PerTenant[i], b.PerTenant[i])
			break
		}
	}
}

// TestEngineLatencyIncludesQueueWait pins the open-loop measurement
// contract: a request's latency runs from its queue arrival, so under a
// backlog the observed tail must exceed anything the device alone reports.
func TestEngineLatencyIncludesQueueWait(t *testing.T) {
	cfg := tinyEngineConfig()
	cfg.Rate = 300 // far beyond the tiny device's drain rate
	eng, err := New(cfg, lazyFactory)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.PeakQueueDepth < cfg.QueueDepth {
		t.Fatalf("overload never filled a queue (peak %d of %d) — test premise broken",
			res.PeakQueueDepth, cfg.QueueDepth)
	}
	open := time.Duration(res.Hist.Quantile(0.999))
	device := res.Device.P99Latency
	if open <= device {
		t.Errorf("open-loop p99.9 %v ≤ device-observed p99 %v: queue wait not counted", open, device)
	}
}

// TestTenantsOnParityArray drives the tenant source over a 4-device
// parity-protected array instead of the engine's single simulator: the
// source only sees a sim.Device, so tenants on an array is a choice of
// device, not a second event loop. Flow is conserved, the array serves every
// dispatch, and a repeat run reproduces the records bit for bit.
func TestTenantsOnParityArray(t *testing.T) {
	run := func() (Results, array.Results) {
		t.Helper()
		dev := tinyDevice()
		dev.PreconditionPages = 256 // members start three-quarters full, so GC runs
		arr, err := array.New(array.Config{
			Devices:     4,
			StripePages: 4,
			Mode:        array.Coordinated,
			Redundancy:  array.RedundancyParity,
			Device:      dev,
		}, lazyFactory)
		if err != nil {
			t.Fatalf("array.New: %v", err)
		}
		cfg := tinyEngineConfig().withDefaults()
		cfg.OpsPerTenant = 120
		cfg.WorkingSetPages = arr.UserPages() / 2
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		src, err := newSource(cfg)
		if err != nil {
			t.Fatalf("newSource: %v", err)
		}
		if err := sim.Drive(arr, src, cfg.Device.Cache.FlusherPeriod, cfg.Device.DrainCache); err != nil {
			t.Fatalf("Drive: %v", err)
		}
		ares := arr.Results()
		return src.results(ares.Array), ares
	}
	res, ares := run()

	if want := int64(12 * 120); res.Arrivals != want {
		t.Errorf("arrivals %d, want %d", res.Arrivals, want)
	}
	if res.Arrivals != res.Completed+res.Dropped {
		t.Errorf("arrivals %d ≠ completed %d + dropped %d", res.Arrivals, res.Completed, res.Dropped)
	}
	if res.Completed == 0 || ares.Array.Requests != res.Completed {
		t.Errorf("array served %d requests, tenants completed %d", ares.Array.Requests, res.Completed)
	}
	if ares.FailedRequests != 0 {
		t.Errorf("array failed %d requests fast", ares.FailedRequests)
	}
	if int64(res.Hist.Count()) != res.Completed {
		t.Errorf("latency histogram holds %d samples, want %d", res.Hist.Count(), res.Completed)
	}

	res2, ares2 := run()
	if !reflect.DeepEqual(ares, ares2) {
		t.Error("array record differs on a repeat run")
	}
	if !reflect.DeepEqual(res, res2) {
		t.Error("tenant record differs on a repeat run")
	}
}

// indexHeap is the arrival heap as it was before entries carried their
// keys — tenant indices ordered through streams[t][nextIdx[t]].Time, an
// arrival popped and the tenant pushed back — kept as the oracle for
// takeArrival's replace-the-top-and-sift-once.
type indexHeap struct {
	streams [][]trace.Request
	nextIdx []int
	heap    []int32
}

func (e *indexHeap) less(a, b int32) bool {
	ta, tb := e.streams[a][e.nextIdx[a]].Time, e.streams[b][e.nextIdx[b]].Time
	if ta != tb {
		return ta < tb
	}
	return a < b
}

func (e *indexHeap) heapPush(t int32) {
	e.heap = append(e.heap, t)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *indexHeap) heapPop() int32 {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && e.less(e.heap[l], e.heap[min]) {
			min = l
		}
		if r < last && e.less(e.heap[r], e.heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		e.heap[i], e.heap[min] = e.heap[min], e.heap[i]
		i = min
	}
	return top
}

// TestTakeArrivalMatchesPopPush: on random streams whose arrival times
// collide within and across tenants, takeArrival offers the same (tenant,
// request) sequence as pop-then-push — earliest first, ties to the lower
// tenant index — down to the last request.
func TestTakeArrivalMatchesPopPush(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		streams := make([][]trace.Request, n)
		total := 0
		for tn := range streams {
			streams[tn] = make([]trace.Request, 1+rng.Intn(12))
			var at time.Duration
			for i := range streams[tn] {
				at += time.Duration(rng.Intn(3)) // 0 often: ties everywhere
				streams[tn][i] = trace.Request{Time: at, LPN: int64(total), Pages: 1}
				total++
			}
		}
		src := &source{tenants: make([]tenantState, n)}
		ref := &indexHeap{streams: streams, nextIdx: make([]int, n)}
		for tn := range streams {
			src.tenants[tn].stream = streams[tn]
			src.heapPush(arrival{at: streams[tn][0].Time, tenant: int32(tn)})
			ref.heapPush(int32(tn))
		}
		for i := 0; i < total; i++ {
			wt := ref.heapPop()
			wr := streams[wt][ref.nextIdx[wt]]
			if ref.nextIdx[wt]++; ref.nextIdx[wt] < len(streams[wt]) {
				ref.heapPush(wt)
			}
			if at := src.heap[0].at; at != wr.Time {
				t.Logf("seed %d arrival %d: top key %v, want %v", seed, i, at, wr.Time)
				return false
			}
			if gt, gr := src.takeArrival(); gt != wt || gr != wr {
				t.Logf("seed %d arrival %d: took tenant %d %+v, pop+push tenant %d %+v", seed, i, gt, gr, wt, wr)
				return false
			}
		}
		if len(src.heap) != 0 {
			t.Logf("seed %d: %d entries left after the last arrival", seed, len(src.heap))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTenantFootprint is the guard on "a tenant costs what it uses": a
// 10,000-tenant engine that has run its 16 requests per tenant holds under
// 4 KiB of live heap per tenant — streams, queue, histogram and ledgers; the
// shared device is set aside before measuring. With a bucket array and a
// QueueDepth-slot ring per tenant from birth it held over 18 KiB.
func TestTenantFootprint(t *testing.T) {
	const tenants = 10000
	dev := tinyDevice()
	dev.FTL.Geometry.BlocksPerChip = 10240 // 327,680 pages: twenty per tenant fit in user space
	cfg := Config{
		Tenants:         tenants,
		OpsPerTenant:    16,
		Arrival:         MMPP,
		Rate:            0.01,
		WorkingSetPages: 20 * tenants, // tinyEngineConfig's slice: small, and every workload profile accepts it
		Seed:            1,
		Device:          dev,
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	eng, err := New(cfg, lazyFactory)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	eng.sim = nil
	after := liveHeap()
	runtime.KeepAlive(eng)
	if res.Completed+res.Dropped != tenants*16 {
		t.Fatalf("completed %d + dropped %d of %d requests", res.Completed, res.Dropped, tenants*16)
	}
	perTenant := float64(after-before) / tenants
	t.Logf("%.0f B live per tenant (%d completed, %d dropped, peak queue depth %d)",
		perTenant, res.Completed, res.Dropped, res.PeakQueueDepth)
	if perTenant > 4096 {
		t.Errorf("%.0f B live heap per tenant, want ≤ 4096", perTenant)
	}
}
