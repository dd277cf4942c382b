package tenant

import (
	"fmt"
	"runtime"
	"time"

	"jitgc/internal/metrics"
	"jitgc/internal/parallel"
	"jitgc/internal/sim"
	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
	"jitgc/internal/workload"
)

// TenantResult is one tenant's verdict.
type TenantResult struct {
	// Tenant is the tenant index; Class its QoS tier.
	Tenant int
	Class  Class
	// Arrivals is what the arrival process offered; Dropped what admission
	// shed on a full queue; Completed what the device finished.
	Arrivals, Dropped, Completed int64
	// Violations counts completed requests slower than the class SLO.
	Violations int64
	// P999 is the tenant's p99.9 completion latency (queue wait included);
	// SLOMet reports P999 ≤ Class.SLO.
	P999   time.Duration
	SLOMet bool
}

// ClassResult aggregates one QoS tier across its tenants.
type ClassResult struct {
	Class   Class
	Tenants int
	// SLOMet counts tenants of this class whose p99.9 met the class SLO.
	SLOMet                       int
	Arrivals, Dropped, Completed int64
	Violations                   int64
	// Hist is the class's merged latency histogram.
	Hist *telemetry.LogHist
}

// Results summarizes one multi-tenant run.
type Results struct {
	// Device is the shared device's own run record (WAF, GC counters,
	// device-observed latency — which excludes queue wait).
	Device metrics.Results
	// Tenants is the tenant count; PerTenant and PerClass the verdicts.
	Tenants   int
	PerTenant []TenantResult
	PerClass  []ClassResult
	// Flow conservation over the whole run: Arrivals = Admitted + Dropped
	// and, because the run drains every queue, Admitted = Completed.
	Arrivals, Admitted, Dropped, Completed int64
	// Violations counts SLO-violating completions across all tenants;
	// SLOMet of SLOTenants tenants met their p99.9 SLO.
	Violations         int64
	SLOMet, SLOTenants int
	// PeakQueueDepth is the high-water mark of any single tenant queue.
	PeakQueueDepth int
	// Hist is the merged all-tenant completion-latency histogram
	// (p99/p99.9/p99.99 across every request of the run).
	Hist *telemetry.LogHist
	// Span is the end-to-end simulated duration of the run, including any
	// trailing device overrun.
	Span time.Duration
}

// Engine is one open-loop multi-tenant run: a tenant source (arrival
// processes, bounded queues, DRR dispatch, per-tenant SLO scoring) driven
// over one shared device simulator by sim.Drive. The run is on one
// simulated clock in one goroutine — determinism is by construction; only
// the synthesis in New fans out, into pre-indexed slots (see newSource).
type Engine struct {
	sim *sim.Simulator
	src *source
}

// source is the open-loop sim.Source the closed-loop slice replay cannot
// express. Its events are arrivals and dispatches: an arrival is a pure
// queue insertion that never touches the device, so load keeps accumulating
// while the device is stalled behind a non-preemptible collection; a
// dispatch issues the scheduler's DRR pick at the instant the device frees
// up, and the request's latency spans queue wait plus device service. Ties
// resolve arrival → dispatch (→ tick, by Drive's source-first rule).
type source struct {
	cfg   Config
	sched *scheduler
	now   time.Duration // time of the latest arrival or dispatch

	tenants []tenantState

	// Min-heap of tenants with arrivals left, keyed by next arrival time
	// (ties broken by tenant index, so interleavings are deterministic).
	// Each entry carries its key, so ordering the heap never reads a stream.
	heap []arrival
}

// tenantState is everything the source keeps for one tenant besides its
// queue: the request stream, the verdict ledger, and the latency histogram,
// which holds no sample storage until the tenant completes a request.
type tenantState struct {
	stream []trace.Request // absolute arrival times, sorted
	next   int             // index of the next unoffered request
	class  int             // index into cfg.Classes
	hist   *telemetry.LogHist

	arrivals, drops, done, viol int64
}

// arrival is one heap entry: a tenant and the time of its next unoffered
// request.
type arrival struct {
	at     time.Duration
	tenant int32
}

func (a arrival) before(b arrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.tenant < b.tenant
}

// New builds an engine: it validates the configuration, synthesizes every
// tenant's request stream (workload profile + arrival process), and
// constructs the shared device with a policy from factory.
func New(cfg Config, factory sim.PolicyFactory) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := sim.New(cfg.Device, factory)
	if err != nil {
		return nil, err
	}
	src, err := newSource(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{sim: s, src: src}, nil
}

// newSource synthesizes the tenant streams and scheduler for a validated,
// defaults-filled cfg.
//
// Tenants are synthesized in parallel, one parallel.Run cell each on
// GOMAXPROCS workers: a tenant's streams are a pure function of (seed,
// tenant) through streamSeed, and each cell writes only its own tenants
// slot. The scheduler weights and the arrival heap are then built serially
// in tenant order, so the source is the same at any worker count.
func newSource(cfg Config) (*source, error) {
	n := cfg.Tenants
	e := &source{
		cfg:     cfg,
		tenants: make([]tenantState, n),
		heap:    make([]arrival, 0, n),
	}

	// Each tenant owns a disjoint slice of the logical space, runs one of
	// the six paper benchmarks as its workload profile, and replaces the
	// generator's closed-loop think times with its own arrival process.
	slice := cfg.WorkingSetPages / int64(n)
	gens := workload.All()
	err := parallel.Run(runtime.GOMAXPROCS(0), n, func(t int) error {
		gen := gens[t%len(gens)]
		reqs, err := gen.Generate(workload.Params{
			Source:          newPCG(streamSeed(cfg.Seed, t, workloadStream)),
			Ops:             cfg.OpsPerTenant,
			WorkingSetPages: slice,
		})
		if err != nil {
			return fmt.Errorf("tenant %d (%s): %w", t, gen.Name(), err)
		}
		proc, err := newProcess(cfg.Arrival, cfg.Rate, streamSeed(cfg.Seed, t, arrivalStream))
		if err != nil {
			return err
		}
		base := int64(t) * slice
		var at time.Duration
		for i := range reqs {
			at += proc.Next()
			reqs[i].Time = at
			reqs[i].LPN += base
		}
		e.tenants[t] = tenantState{stream: reqs, class: t % len(cfg.Classes), hist: telemetry.NewLogHist()}
		return nil
	})
	if err != nil {
		return nil, err
	}

	weights := make([]int64, n)
	for t := range e.tenants {
		ts := &e.tenants[t]
		weights[t] = cfg.Classes[ts.class].Weight
		e.heapPush(arrival{at: ts.stream[0].Time, tenant: int32(t)})
	}
	e.sched = newScheduler(weights, cfg.Quantum, cfg.QueueDepth)
	return e, nil
}

// Sim returns the shared device simulator, for inspection in tests.
func (e *Engine) Sim() *sim.Simulator { return e.sim }

func (e *source) heapPush(a arrival) {
	e.heap = append(e.heap, a)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heap[i].before(e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// takeArrival removes the earliest pending arrival, counts it, and returns
// its tenant and request. The tenant's following request, if it has one,
// replaces the top in place — otherwise the last entry does — and one
// sift-down restores heap order: the same sequence a pop followed by a push
// yields, at half the moves.
func (e *source) takeArrival() (int32, trace.Request) {
	t := e.heap[0].tenant
	ts := &e.tenants[t]
	req := ts.stream[ts.next]
	ts.next++
	ts.arrivals++
	h := e.heap
	if ts.next < len(ts.stream) {
		h[0].at = ts.stream[ts.next].Time
	} else {
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		e.heap = h
	}
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].before(h[min]) {
			min = l
		}
		if r < len(h) && h[r].before(h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return t, req
}

// Run executes the engine to completion: every arrival offered, every
// queue drained, and — when the device config drains its cache — every
// buffered write flushed.
func (e *Engine) Run() (Results, error) {
	dev := e.src.cfg.Device
	e.sim.ExpectRequests(e.src.cfg.Tenants * e.src.cfg.OpsPerTenant)
	if err := sim.Drive(e.sim, e.src, dev.Cache.FlusherPeriod, dev.DrainCache); err != nil {
		return Results{}, err
	}
	return e.src.results(e.sim.Results()), nil
}

// NextAt returns the earlier of the next arrival and, when a backlog is
// queued, the next dispatch — the instant dev frees up.
func (e *source) NextAt(dev sim.Device) (t time.Duration, ok bool) {
	if e.sched.backlogged() {
		t, ok = max(dev.DeviceFreeAt(), e.now), true
	}
	if len(e.heap) > 0 {
		if tArr := e.heap[0].at; !ok || tArr <= t {
			return tArr, true
		}
	}
	return t, ok
}

// Fire executes the event NextAt announced for t: the arrival due then, or
// else the dispatch.
func (e *source) Fire(now time.Duration, dev sim.Device) error {
	e.now = now
	if len(e.heap) > 0 && e.heap[0].at <= now {
		t, r := e.takeArrival()
		if !e.sched.admit(int(t), r) {
			e.tenants[t].drops++
		}
		return nil
	}
	t, req, _ := e.sched.dispatch()
	arrival := req.Time
	req.Time = now
	comp, err := dev.StepRequest(req)
	if err != nil {
		return fmt.Errorf("tenant %d: %w", t, err)
	}
	lat := comp - arrival // runs from queue arrival
	ts := &e.tenants[t]
	ts.hist.Add(int64(lat))
	ts.done++
	if lat > e.cfg.Classes[ts.class].SLO {
		ts.viol++
	}
	return nil
}

// results assembles the run verdicts around the device's own record.
func (e *source) results(device metrics.Results) Results {
	res := Results{
		Device:         device,
		Tenants:        e.cfg.Tenants,
		PerTenant:      make([]TenantResult, e.cfg.Tenants),
		PerClass:       make([]ClassResult, len(e.cfg.Classes)),
		Admitted:       e.sched.admitted,
		Dropped:        e.sched.dropped,
		Completed:      e.sched.served,
		PeakQueueDepth: e.sched.peakDepth,
		SLOTenants:     e.cfg.Tenants,
		Hist:           telemetry.NewLogHist(),
	}
	for ci := range res.PerClass {
		res.PerClass[ci] = ClassResult{
			Class: e.cfg.Classes[ci],
			Hist:  telemetry.NewLogHist(),
		}
	}
	for t := range e.tenants {
		ts := &e.tenants[t]
		ci := ts.class
		cl := e.cfg.Classes[ci]
		p999 := time.Duration(ts.hist.Quantile(0.999))
		tr := TenantResult{
			Tenant:     t,
			Class:      cl,
			Arrivals:   ts.arrivals,
			Dropped:    ts.drops,
			Completed:  ts.done,
			Violations: ts.viol,
			P999:       p999,
			SLOMet:     p999 <= cl.SLO,
		}
		res.PerTenant[t] = tr
		res.Arrivals += tr.Arrivals
		res.Violations += tr.Violations
		if tr.SLOMet {
			res.SLOMet++
		}
		res.Hist.Merge(ts.hist)

		c := &res.PerClass[ci]
		c.Tenants++
		c.Arrivals += tr.Arrivals
		c.Dropped += tr.Dropped
		c.Completed += tr.Completed
		c.Violations += tr.Violations
		if tr.SLOMet {
			c.SLOMet++
		}
		c.Hist.Merge(ts.hist)

		e.cfg.Device.Tracer.TenantSummary(res.Device.SimTime, t, cl.Name,
			tr.Completed, tr.Dropped, tr.Violations, p999)
	}
	res.Span = res.Device.SimTime
	return res
}
