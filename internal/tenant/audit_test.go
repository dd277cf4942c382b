package tenant

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/sim"
	"jitgc/internal/trace"
)

// audited is a source driven by sim.Drive that audits itself after every
// event and records, per tenant, each event at which the pages it has been
// served or its backlog changed — what the end-of-run DRR bound check needs.
// A fault, once its precondition holds, corrupts the source, and the audit
// must then fail.
type audited struct {
	*source
	fault   *fault
	faulted bool

	dev        pageRecorder
	fires      int
	done       []int64 // completions per tenant as of the last event
	served     []int64 // pages served per tenant
	backlogged []bool
	timeline   [][]mark
}

// mark is a tenant's state after event fire.
type mark struct {
	fire       int
	served     int64
	backlogged bool
}

// fault is one injected corruption and the audit error it must raise.
type fault struct {
	name    string
	when    func(*source) bool
	corrupt func(*source)
	want    string
}

// pageRecorder is the device, remembering the page count of the request it
// was last given.
type pageRecorder struct {
	sim.Device
	pages int64
}

func (d *pageRecorder) StepRequest(r trace.Request) (time.Duration, error) {
	d.pages = int64(r.Pages)
	return d.Device.StepRequest(r)
}

func newAudited(cfg Config, f *fault) (*audited, error) {
	src, err := newSource(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Tenants
	return &audited{
		source:     src,
		fault:      f,
		done:       make([]int64, n),
		served:     make([]int64, n),
		backlogged: make([]bool, n),
		timeline:   make([][]mark, n),
	}, nil
}

func (a *audited) Fire(now time.Duration, dev sim.Device) error {
	a.dev.Device = dev
	if err := a.source.Fire(now, &a.dev); err != nil {
		return err
	}
	a.fires++
	for t := range a.tenants {
		done, backlogged := a.tenants[t].done, a.sched.queuedAt(t) > 0
		if done == a.done[t] && backlogged == a.backlogged[t] {
			continue
		}
		if done != a.done[t] {
			a.done[t] = done
			a.served[t] += a.dev.pages
		}
		a.backlogged[t] = backlogged
		a.timeline[t] = append(a.timeline[t], mark{a.fires, a.served[t], backlogged})
	}
	if a.fault != nil && !a.faulted && a.fault.when(a.source) {
		a.fault.corrupt(a.source)
		a.faulted = true
	}
	return a.checkConsistency()
}

// drrBound checks the deficit-round-robin fairness bound. Over any interval
// in which tenants i and j both stay backlogged, with quantum Q, weights w
// and largest requests M (pages),
//
//	|served_i/w_i − served_j/w_j| ≤ 2Q + (M_i−1)/w_i + (M_j−1)/w_j.
//
// Backlogged, the two alternate visits. A visit ends when the deficit no
// longer covers the head request, so it leaves under M pages of residual
// and then earns Q·w: k whole visits serve k·Q·w pages give or take that
// residual. Cut visits at the interval's ends add up to one quantum to i,
// and a tenant's first visit of a backlog serves nothing (deficit 0), which
// can take one from j. The bound is attained, and the tighter Q + M does not
// hold over arbitrary intervals (TestDRRGapExceedsQuantumPlusLargest).
func (a *audited) drrBound() error {
	n := len(a.tenants)
	q := a.cfg.Quantum
	weight := make([]int64, n)
	largest := make([]int64, n)
	for t := range a.tenants {
		weight[t] = a.cfg.Classes[a.tenants[t].class].Weight
		for _, r := range a.tenants[t].stream {
			largest[t] = max(largest[t], int64(r.Pages))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Scaled by w_i·w_j so the comparison stays in integers.
			limit := 2*q*weight[i]*weight[j] + (largest[i]-1)*weight[j] + (largest[j]-1)*weight[i]
			var si, sj int64
			var bi, bj bool
			var lo, hi int64
			ti, tj := a.timeline[i], a.timeline[j]
			for len(ti) > 0 || len(tj) > 0 {
				fire := math.MaxInt
				if len(ti) > 0 {
					fire = ti[0].fire
				}
				if len(tj) > 0 {
					fire = min(fire, tj[0].fire)
				}
				was := bi && bj
				if len(ti) > 0 && ti[0].fire == fire {
					si, bi, ti = ti[0].served, ti[0].backlogged, ti[1:]
				}
				if len(tj) > 0 && tj[0].fire == fire {
					sj, bj, tj = tj[0].served, tj[0].backlogged, tj[1:]
				}
				if !bi || !bj {
					continue
				}
				g := si*weight[j] - sj*weight[i]
				if !was {
					lo, hi = g, g
				}
				lo, hi = min(lo, g), max(hi, g)
				if hi-lo > limit {
					return fmt.Errorf("DRR bound broken by tenants %d and %d at event %d: weighted service gap %d/%d pages, bound %d/%d",
						i, j, fire, hi-lo, weight[i]*weight[j], limit, weight[i]*weight[j])
				}
			}
		}
	}
	return nil
}

// run drives a over a fresh device for its config, then checks the DRR
// bound.
func (a *audited) run() error {
	dev, err := sim.New(a.cfg.Device, lazyFactory)
	if err != nil {
		return err
	}
	if err := sim.Drive(dev, a, a.cfg.Device.Cache.FlusherPeriod, a.cfg.Device.DrainCache); err != nil {
		return err
	}
	return a.drrBound()
}

// auditDevice is tinyDevice with room for 50 tenants' 20-page slices.
func auditDevice() sim.Config {
	dev := tinyDevice()
	dev.FTL.Geometry.BlocksPerChip = 64
	return dev
}

// randomAuditConfig draws a small engine: 1–50 tenants, any arrival kind,
// queue depth 1–8, quantum 1–16, one to three classes of weight 1–8, and an
// aggregate rate log-uniform over 5…5000 requests/s — light load to far past
// what the device drains, so queues fill and drop.
func randomAuditConfig(rng *rand.Rand) Config {
	tenants := 1 + rng.Intn(50)
	classes := make([]Class, 1+rng.Intn(3))
	for i := range classes {
		classes[i] = Class{Name: fmt.Sprint("c", i), Weight: 1 + rng.Int63n(8), SLO: 50 * time.Millisecond}
	}
	cfg := Config{
		Tenants:         tenants,
		OpsPerTenant:    1 + rng.Intn(30),
		Arrival:         arrivalKinds[rng.Intn(len(arrivalKinds))],
		Rate:            5 * math.Pow(1000, rng.Float64()) / float64(tenants),
		QueueDepth:      1 + rng.Intn(8),
		Quantum:         1 + rng.Int63n(16),
		Classes:         classes,
		Seed:            rng.Int63(),
		WorkingSetPages: 20 * int64(tenants),
		Device:          auditDevice(),
	}.withDefaults()
	return cfg
}

// TestSourceAudit drives random small engines through sim.Drive, auditing
// the source after every event (checkConsistency) and the DRR fairness bound
// between every pair of tenants at the end.
func TestSourceAudit(t *testing.T) {
	var runs, dropping int
	prop := func(seed int64) bool {
		cfg := randomAuditConfig(rand.New(rand.NewSource(seed)))
		if err := cfg.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		a, err := newAudited(cfg, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := a.run(); err != nil {
			t.Logf("seed %d (%d tenants, %s, depth %d, quantum %d, %.1f req/s each): %v",
				seed, cfg.Tenants, cfg.Arrival, cfg.QueueDepth, cfg.Quantum, cfg.Rate, err)
			return false
		}
		runs++
		if a.sched.dropped > 0 {
			dropping++
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if dropping == 0 || dropping == runs {
		t.Errorf("%d of %d runs dropped arrivals: the sweep must span light load to overload", dropping, runs)
	}
}

// TestSourceAuditCatchesFaults injects one fault per audited invariant into
// an overloaded four-tenant engine and requires the audit to name it; the
// same engine unfaulted passes.
func TestSourceAuditCatchesFaults(t *testing.T) {
	cfg := Config{
		Tenants:         4,
		OpsPerTenant:    200,
		Arrival:         Poisson,
		Rate:            300,
		QueueDepth:      8,
		Quantum:         2,
		Classes:         []Class{{Name: "one", Weight: 1, SLO: time.Second}},
		Seed:            1,
		WorkingSetPages: 80,
		Device:          tinyDevice(),
	}.withDefaults()
	always := func(*source) bool { return true }
	// queueAt returns the first tenant whose queue holds depth requests, or -1.
	queueAt := func(e *source, depth int) int {
		for t := range e.tenants {
			if e.sched.queuedAt(t) == depth {
				return t
			}
		}
		return -1
	}
	faults := []*fault{
		{"drop no tenant saw", always, func(e *source) { e.sched.dropped++ }, "arrivals ≠ admitted + dropped"},
		{"dispatch never popped", always, func(e *source) { e.sched.served++ }, "admitted ≠ served + queued"},
		{"admission past the bound", func(e *source) bool { return queueAt(e, e.cfg.QueueDepth) >= 0 }, func(e *source) {
			t := queueAt(e, e.cfg.QueueDepth)
			e.sched.queues[t].limit++
			e.sched.admit(t, trace.Request{Pages: 1})
			e.tenants[t].arrivals++
		}, "deeper than QueueDepth"},
		{"backlogged tenant off the list", func(e *source) bool { return e.sched.actN > 0 },
			func(e *source) { e.sched.actN-- }, "active list disagrees"},
		{"deficit kept off the list", func(e *source) bool { return queueAt(e, 0) >= 0 },
			func(e *source) { e.sched.deficit[queueAt(e, 0)] = 1 }, "idle tenant"},
		{"one tenant's quantum eightfold", always, func(e *source) { e.sched.quantum[0] *= 8 }, "DRR bound broken"},
	}

	a, err := newAudited(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.run(); err != nil {
		t.Fatalf("unfaulted engine fails its audit: %v", err)
	}
	if a.sched.dropped == 0 {
		t.Fatal("the engine never dropped an arrival: not overloaded, premise broken")
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			a, err := newAudited(cfg, f)
			if err != nil {
				t.Fatal(err)
			}
			err = a.run()
			if !a.faulted {
				t.Fatal("the fault's precondition never held")
			}
			if err == nil || !strings.Contains(err.Error(), f.want) {
				t.Fatalf("audit returned %v, want an error naming %q", err, f.want)
			}
		})
	}
}

// TestDRRGapExceedsQuantumPlusLargest is why the audit's DRR bound carries
// two quanta: with quantum 1, equal weights and 4-page requests, tenant 0
// serves 6 pages while tenant 1, backlogged throughout, serves none — more
// than Q + M = 5, within 2Q + (M−1) + (M−1) = 8. Tenant 0 enters the
// interval holding deficit 2; tenant 1 rejoins on 0 and saves up for its
// head.
func TestDRRGapExceedsQuantumPlusLargest(t *testing.T) {
	s := newScheduler([]int64{1, 1}, 1, 8)
	admit := func(tn int, pages ...int32) {
		for _, p := range pages {
			s.admit(tn, trace.Request{Pages: p})
		}
	}
	admit(0, 4, 1, 1, 1)
	admit(1, 1)
	if tn, _, _ := s.dispatch(); tn != 1 || s.deficit[0] != 2 {
		t.Fatalf("set-up: dispatched tenant %d, tenant 0 deficit %d; want tenant 1, deficit 2", tn, s.deficit[0])
	}
	admit(1, 4, 4)
	var served [2]int32
	for i := 0; i < 3; i++ {
		tn, p, _ := s.dispatch()
		served[tn] += p.Pages
	}
	if served != [2]int32{6, 0} || s.queuedAt(0) == 0 || s.queuedAt(1) == 0 {
		t.Errorf("served %v with queues %d and %d, want [6 0] with both still backlogged",
			served, s.queuedAt(0), s.queuedAt(1))
	}
}
