package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// sliceHoles is the allocator FileChurn ran on before holeList: the holes in
// a plain slice in unlink order, walked from the front for every request. It
// is the definition of the allocation order, kept as the oracle.
type sliceHoles struct{ free []churnExtent }

func (s *sliceHoles) push(ext churnExtent) { s.free = append(s.free, ext) }

func (s *sliceHoles) alloc(pages int) (churnExtent, bool) {
	for i, f := range s.free {
		if f.pages < pages {
			continue
		}
		if f.pages == pages {
			s.free = append(s.free[:i], s.free[i+1:]...)
		} else {
			s.free[i] = churnExtent{lpn: f.lpn + int64(pages), pages: f.pages - pages}
		}
		return churnExtent{lpn: f.lpn, pages: pages}, true
	}
	return churnExtent{}, false
}

func (s *sliceHoles) allocLargest() (churnExtent, bool) {
	if len(s.free) == 0 {
		return churnExtent{}, false
	}
	best := 0
	for i, f := range s.free {
		if f.pages > s.free[best].pages {
			best = i
		}
	}
	ext := s.free[best]
	s.free = append(s.free[:best], s.free[best+1:]...)
	return ext, true
}

// holes lists a holeList's live holes in position order.
func (h *holeList) holes() []churnExtent {
	var out []churnExtent
	for i, lpn := range h.lpn {
		if pages := h.tree[h.leaves+i]; pages > 0 {
			out = append(out, churnExtent{lpn: lpn, pages: pages})
		}
	}
	return out
}

// audit checks the tournament against its leaves.
func (h *holeList) audit() error {
	if h.leaves&(h.leaves-1) != 0 || len(h.tree) != 2*h.leaves && h.leaves > 0 || len(h.lpn) > h.leaves {
		return fmt.Errorf("%d leaves, %d nodes, %d positions", h.leaves, len(h.tree), len(h.lpn))
	}
	for k := 1; k < h.leaves; k++ {
		if want := max(h.tree[2*k], h.tree[2*k+1]); h.tree[k] != want {
			return fmt.Errorf("node %d = %d, children say %d", k, h.tree[k], want)
		}
	}
	for i := len(h.lpn); i < h.leaves; i++ {
		if h.tree[h.leaves+i] != 0 {
			return fmt.Errorf("unused position %d has size %d", i, h.tree[h.leaves+i])
		}
	}
	if n := len(h.holes()); n != h.live {
		return fmt.Errorf("live = %d, %d positions of non-zero size", h.live, n)
	}
	return nil
}

// TestHoleListMatchesSlice drives both pools through random pushes,
// first-fit allocations (splits and exact takes), largest-hole takes and
// misses, comparing every answer and the full hole order after every step.
// Sizes are drawn from a few values so ties are the common case, and the run
// is long enough for in-place compactions and several doublings.
func TestHoleListMatchesSlice(t *testing.T) {
	compactions, doublings := 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h holeList
		var s sliceHoles
		pushBias := 30 + rng.Intn(50) // percent: below 50 the pool drains, above it grows
		next := int64(0)
		for step := 0; step < 3000; step++ {
			leaves, full := h.leaves, len(h.lpn) == h.leaves
			switch k := rng.Intn(100); {
			case k < pushBias:
				ext := churnExtent{lpn: next, pages: 1 + rng.Intn(12)}
				next += int64(ext.pages)
				h.push(ext)
				s.push(ext)
				if full && h.leaves == leaves {
					compactions++
				} else if full {
					doublings++
				}
			case k < 97:
				pages := 1 + rng.Intn(14) // 13 and 14 never fit
				got, ok := h.alloc(pages)
				want, wantOK := s.alloc(pages)
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: alloc(%d) = %+v, %v; slice %+v, %v", seed, step, pages, got, ok, want, wantOK)
				}
			default:
				got, ok := h.allocLargest()
				want, wantOK := s.allocLargest()
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: allocLargest = %+v, %v; slice %+v, %v", seed, step, got, ok, want, wantOK)
				}
			}
			if err := h.audit(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if got := h.holes(); !slices.Equal(got, s.free) {
				t.Fatalf("seed %d step %d: holes\n got %v\nwant %v", seed, step, got, s.free)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	if compactions < 30 || doublings < 60 {
		t.Errorf("30 runs made %d in-place compactions and %d doublings: the sweep misses one of them", compactions, doublings)
	}
}

// TestHoleListSteadyStateZeroAlloc: a pool hovering at one size — what the
// churn's bang-bang control produces — compacts in place for ever.
func TestHoleListSteadyStateZeroAlloc(t *testing.T) {
	var h holeList
	next := int64(0)
	push := func() {
		h.push(churnExtent{lpn: next, pages: 4})
		next += 4
	}
	for i := 0; i < 150; i++ {
		push()
	}
	leaves := h.leaves
	if avg := testing.AllocsPerRun(5000, func() {
		h.alloc(4)
		push()
	}); avg != 0 || h.leaves != leaves {
		t.Errorf("take + push at constant size: %.2f allocs per run, %d → %d leaves", avg, leaves, h.leaves)
	}
}

// countingPool wraps the oracle and counts the fallbacks generate takes when
// no hole fits and the cursor has run out: the largest hole, and — when the
// pool is empty — a live file's extent.
type countingPool struct {
	sliceHoles
	largest, overwrites int
}

func (c *countingPool) allocLargest() (churnExtent, bool) {
	ext, ok := c.sliceHoles.allocLargest()
	if ok {
		c.largest++
	} else {
		c.overwrites++
	}
	return ext, ok
}

// TestFileChurnStreamMatchesLinearAllocator: the generator on holeList emits,
// request for request, the stream it emits on the linear free list — over
// seeds, churn rates, and a working set of a few hundred pages, so the pool
// fragments, the cursor runs out early and both fallbacks carry real traffic.
func TestFileChurnStreamMatchesLinearAllocator(t *testing.T) {
	for _, ws := range []int64{300, 700, 16384} {
		for _, rate := range []float64{0, 0.1, 0.25, 0.6} {
			for seed := int64(1); seed <= 6; seed++ {
				p := Params{Seed: seed, Ops: max(6000, 2*int(ws)), WorkingSetPages: ws}
				c := NewFileChurn(rate)
				got, err := c.Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				var ref countingPool
				want, err := c.generate(p, &ref)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("ws %d rate %v seed %d: %d requests, linear allocator %d", ws, rate, seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("ws %d rate %v seed %d: request %d = %+v, linear allocator %+v", ws, rate, seed, i, got[i], want[i])
					}
				}
				if ws < 1000 {
					if rate > 0 && ref.largest == 0 {
						t.Errorf("ws %d rate %v seed %d: the largest-hole fallback never fired", ws, rate, seed)
					}
					if rate == 0 && ref.overwrites == 0 {
						t.Errorf("ws %d rate 0 seed %d: the overwrite fallback never fired", ws, seed)
					}
				}
			}
		}
	}
}
