package tenant

import (
	"testing"
	"time"

	"jitgc/internal/sim"
	"jitgc/internal/trace"
)

var benchSink time.Duration

// backloggedScheduler is the steady-state DRR set-up the dispatch test and
// benchmark share: 64 tenants across the three default weight tiers, every
// queue full, so a dispatch followed by a re-admission of the same request
// never drains the backlog and never grows a queue.
func backloggedScheduler() *scheduler {
	const (
		tenants = 64
		depth   = 16
	)
	weights := make([]int64, tenants)
	for i := range weights {
		weights[i] = DefaultClasses()[i%3].Weight
	}
	s := newScheduler(weights, 8, depth)
	for t := 0; t < tenants; t++ {
		for i := 0; i < depth; i++ {
			s.admit(t, trace.Request{Pages: int32(1 + i%4)})
		}
	}
	return s
}

// arrivalKinds are the processes the arrival test and benchmark draw from.
var arrivalKinds = []ArrivalKind{Poisson, MMPP, Diurnal}

// TestDispatchZeroAlloc: the scheduler is ring-buffer based, and one
// dispatch plus one re-admission must not allocate.
func TestDispatchZeroAlloc(t *testing.T) {
	s := backloggedScheduler()
	if avg := testing.AllocsPerRun(1000, func() {
		tn, p, _ := s.dispatch()
		s.admit(tn, p)
	}); avg != 0 {
		t.Errorf("dispatch + re-admit allocates %.2f times per op, want 0", avg)
	}
}

// TestArrivalZeroAlloc: the processes run once per synthesized request
// across potentially millions of requests per experiment cell, so one
// inter-arrival draw must not allocate for any kind.
func TestArrivalZeroAlloc(t *testing.T) {
	for _, kind := range arrivalKinds {
		p, err := newProcess(kind, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(1000, func() { benchSink = p.Next() }); avg != 0 {
			t.Errorf("%s: Next allocates %.2f times per draw, want 0", kind, avg)
		}
	}
}

// BenchmarkDispatch measures the steady-state DRR hot path: one dispatch
// plus one re-admission against the backlogged scheduler.
func BenchmarkDispatch(b *testing.B) {
	s := backloggedScheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, p, _ := s.dispatch()
		s.admit(t, p) // refill: the backlog never drains, queues never grow
	}
}

// BenchmarkNewSource measures tenant synthesis without the device: 1,000
// MMPP tenants of 60 requests each, every one generating its workload
// profile and arrival stream — the set-up tenants1000_open pays in
// tenant.New.
func BenchmarkNewSource(b *testing.B) {
	const tenants = 1000
	cfg := Config{
		Tenants:         tenants,
		OpsPerTenant:    60,
		Arrival:         MMPP,
		Rate:            120.0 / tenants,
		WorkingSetPages: 30 * tenants, // about half the default device's user pages, as there
		Device:          sim.DefaultConfig(),
	}.withDefaults()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newSource(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArrival measures one inter-arrival draw per process kind.
func BenchmarkArrival(b *testing.B) {
	for _, kind := range arrivalKinds {
		b.Run(string(kind), func(b *testing.B) {
			p, err := newProcess(kind, 100, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = p.Next()
			}
		})
	}
}
