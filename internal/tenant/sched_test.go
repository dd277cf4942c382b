package tenant

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/trace"
)

// refScheduler is a naive reference DRR implementation written against the
// Shreedhar & Varghese description rather than against sched.go: plain
// slices, linear scans, append-heavy rotation. The property tests below
// drive it and the production scheduler through identical random scripts
// and require identical dispatch decisions, so the production ring/FIFO
// micro-optimisations can never drift from the textbook semantics.
type refScheduler struct {
	queues  [][]trace.Request
	deficit []int64
	quantum []int64
	active  []int // backlogged tenants in FIFO rotation order
	depth   int

	dropped, admitted, served int64
}

func newRefScheduler(weights []int64, quantum int64, depth int) *refScheduler {
	r := &refScheduler{
		queues:  make([][]trace.Request, len(weights)),
		deficit: make([]int64, len(weights)),
		quantum: make([]int64, len(weights)),
		depth:   depth,
	}
	for i, w := range weights {
		r.quantum[i] = quantum * w
	}
	return r
}

func (r *refScheduler) admit(t int, p trace.Request) bool {
	if len(r.queues[t]) == r.depth {
		r.dropped++
		return false
	}
	r.queues[t] = append(r.queues[t], p)
	r.admitted++
	for _, a := range r.active {
		if a == t {
			return true
		}
	}
	r.active = append(r.active, t)
	return true
}

func (r *refScheduler) dispatch() (int, trace.Request, bool) {
	if r.admitted-r.served == 0 {
		return 0, trace.Request{}, false
	}
	for {
		t := r.active[0]
		cost := int64(r.queues[t][0].Pages)
		if r.deficit[t] < cost {
			r.deficit[t] += r.quantum[t]
			r.active = append(r.active[1:], t)
			continue
		}
		p := r.queues[t][0]
		r.queues[t] = r.queues[t][1:]
		r.deficit[t] -= cost
		r.served++
		if len(r.queues[t]) == 0 {
			r.deficit[t] = 0
			r.active = r.active[1:]
		}
		return t, p, true
	}
}

// TestSchedulerMatchesReference drives the production scheduler and the
// naive reference through the same random admit/dispatch scripts and
// requires identical decisions and counters at every step, with the
// conservation invariant (admitted = served + queued, offered = admitted +
// dropped) checked after every operation.
func TestSchedulerMatchesReference(t *testing.T) {
	script := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = 1 + rng.Int63n(8)
		}
		quantum := 1 + rng.Int63n(16)
		depth := 1 + rng.Intn(16)

		s := newScheduler(weights, quantum, depth)
		ref := newRefScheduler(weights, quantum, depth)

		var offered int64
		everAdmitted := make([]bool, n)
		for op := 0; op < 400; op++ {
			if rng.Intn(3) != 0 { // 2/3 admits, 1/3 dispatches
				tn := rng.Intn(n)
				p := trace.Request{
					Time:  time.Duration(op) * time.Millisecond,
					LPN:   int64(op),
					Pages: 1 + rng.Int31n(4),
				}
				offered++
				got, want := s.admit(tn, p), ref.admit(tn, p)
				if got != want {
					t.Logf("seed %d op %d: admit(%d) = %v, reference %v", seed, op, tn, got, want)
					return false
				}
				everAdmitted[tn] = everAdmitted[tn] || got
			} else {
				gt, gp, gok := s.dispatch()
				wt, wp, wok := ref.dispatch()
				if gok != wok || gt != wt || gp != wp {
					t.Logf("seed %d op %d: dispatch = (%d, %+v, %v), reference (%d, %+v, %v)",
						seed, op, gt, gp, gok, wt, wp, wok)
					return false
				}
			}
			if s.admitted != ref.admitted || s.dropped != ref.dropped || s.served != ref.served {
				t.Logf("seed %d op %d: counters diverged", seed, op)
				return false
			}
			if s.admitted != s.served+int64(s.queued) {
				t.Logf("seed %d op %d: admitted %d ≠ served %d + queued %d",
					seed, op, s.admitted, s.served, s.queued)
				return false
			}
			if offered != s.admitted+s.dropped {
				t.Logf("seed %d op %d: offered %d ≠ admitted %d + dropped %d",
					seed, op, offered, s.admitted, s.dropped)
				return false
			}
			for tn := 0; tn < n; tn++ {
				if s.queuedAt(tn) > depth {
					t.Logf("seed %d op %d: tenant %d depth %d exceeds bound %d",
						seed, op, tn, s.queuedAt(tn), depth)
					return false
				}
				// Storage follows use: none before the first admission,
				// never past the bound.
				if slots := len(s.queues[tn].buf); slots > depth || (slots > 0) != everAdmitted[tn] {
					t.Logf("seed %d op %d: tenant %d holds %d slots (bound %d)", seed, op, tn, slots, depth)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(script, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerConservesRequests drains random backlogs to empty and checks
// that every admitted request comes back out exactly once, in per-tenant
// FIFO order.
func TestSchedulerConservesRequests(t *testing.T) {
	drain := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = 1 + rng.Int63n(4)
		}
		depth := 1 + rng.Intn(32)
		s := newScheduler(weights, 1+rng.Int63n(8), depth)

		admittedLPNs := make([][]int64, n)
		for i := 0; i < n*depth; i++ {
			tn := rng.Intn(n)
			p := trace.Request{LPN: int64(i), Pages: 1 + rng.Int31n(4)}
			if s.admit(tn, p) {
				admittedLPNs[tn] = append(admittedLPNs[tn], p.LPN)
			}
		}
		servedLPNs := make([][]int64, n)
		for s.backlogged() {
			tn, p, ok := s.dispatch()
			if !ok {
				t.Logf("seed %d: backlogged but dispatch returned !ok", seed)
				return false
			}
			servedLPNs[tn] = append(servedLPNs[tn], p.LPN)
		}
		if s.served != s.admitted {
			t.Logf("seed %d: drained with served %d ≠ admitted %d", seed, s.served, s.admitted)
			return false
		}
		for tn := 0; tn < n; tn++ {
			if fmt.Sprint(servedLPNs[tn]) != fmt.Sprint(admittedLPNs[tn]) {
				t.Logf("seed %d: tenant %d served %v, admitted %v",
					seed, tn, servedLPNs[tn], admittedLPNs[tn])
				return false
			}
		}
		return true
	}
	if err := quick.Check(drain, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerNoStarvation keeps every tenant saturated — including a
// weight-1 tenant competing against weight-8 neighbours, with request costs
// well above the base quantum — and checks that the weight-1 tenant is
// served its proportional share of page bandwidth, not starved.
func TestSchedulerNoStarvation(t *testing.T) {
	weights := []int64{1, 8, 8, 8}
	const (
		quantum = 2
		depth   = 4
		pages   = 8 // every request costs 4× the base quantum
		rounds  = 10000
	)
	s := newScheduler(weights, quantum, depth)
	refill := func() {
		for tn := range weights {
			for s.queuedAt(tn) < depth {
				s.admit(tn, trace.Request{Pages: pages})
			}
		}
	}
	served := make([]int64, len(weights))
	refill()
	for i := 0; i < rounds; i++ {
		tn, _, ok := s.dispatch()
		if !ok {
			t.Fatal("saturated scheduler had nothing to dispatch")
		}
		served[tn]++
		refill()
	}
	var totalWeight int64
	for _, w := range weights {
		totalWeight += w
	}
	for tn, w := range weights {
		fair := rounds * w / totalWeight
		if served[tn] == 0 {
			t.Errorf("tenant %d (weight %d) starved over %d dispatches", tn, w, rounds)
		}
		if served[tn] < fair/2 || served[tn] > fair*2 {
			t.Errorf("tenant %d (weight %d): served %d, fair share ≈ %d (tolerance ±2×)",
				tn, w, served[tn], fair)
		}
	}
}
