package lpnmap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// pair drives a Map and the Go map it replaces through the same operations
// and compares every result.
type pair struct {
	t   *testing.T
	m   Map[int64]
	ref map[int64]int64
}

func newPair(t *testing.T) *pair { return &pair{t: t, ref: map[int64]int64{}} }

func (p *pair) set(lpn, v int64) {
	p.t.Helper()
	p.m.Set(lpn, v)
	p.ref[lpn] = v
	p.get(lpn)
}

func (p *pair) get(lpn int64) {
	p.t.Helper()
	got, ok := p.m.Get(lpn)
	want, wantOK := p.ref[lpn]
	if got != want || ok != wantOK {
		p.t.Fatalf("Get(%d) = %d, %v; reference %d, %v", lpn, got, ok, want, wantOK)
	}
}

func (p *pair) del(lpn int64) {
	p.t.Helper()
	_, want := p.ref[lpn]
	delete(p.ref, lpn)
	if got := p.m.Delete(lpn); got != want {
		p.t.Fatalf("Delete(%d) = %v, reference %v", lpn, got, want)
	}
	p.get(lpn)
}

// check holds the whole table to the reference: the same length, every
// reference key found with its value, every other key in [0, span) absent,
// no slot holding a key its probe run cannot reach, and load at most ¾.
func (p *pair) check(span int64) {
	p.t.Helper()
	if p.m.Len() != len(p.ref) {
		p.t.Fatalf("Len = %d, reference %d", p.m.Len(), len(p.ref))
	}
	for lpn := range p.ref {
		p.get(lpn)
	}
	for lpn := int64(0); lpn < span; lpn++ {
		p.get(lpn)
	}
	used := 0
	for i, s := range p.m.slots {
		if s.key == 0 {
			continue
		}
		used++
		if j, ok := p.m.find(s.key); !ok || j != i {
			p.t.Fatalf("slot %d holds lpn %d, which a lookup resolves to slot %d (found %v)", i, s.key-1, j, ok)
		}
	}
	if used != p.m.Len() {
		p.t.Fatalf("%d occupied slots, Len %d", used, p.m.Len())
	}
	if 4*used > 3*len(p.m.slots) {
		p.t.Fatalf("%d of %d slots occupied: over ¾ load", used, len(p.m.slots))
	}
}

// TestMapMatchesGoMap sweeps random Set/Get/Delete sequences over a
// key range small enough that overwrites and deletes of present keys are
// common and large enough that the table doubles several times.
func TestMapMatchesGoMap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newPair(t)
		span := int64(16 << rng.Intn(6))
		for step := 0; step < 2000; step++ {
			lpn := rng.Int63n(span)
			switch k := rng.Intn(100); {
			case k < 50:
				p.set(lpn, rng.Int63())
			case k < 65:
				p.get(lpn)
			default:
				p.del(lpn)
			}
			if step%64 == 0 {
				p.check(span)
			}
		}
		p.check(span)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// keysHomedAt returns n distinct LPNs, ascending, whose home slot in m's
// current table is home.
func keysHomedAt(m *Map[int64], home, n int) []int64 {
	var out []int64
	for lpn := int64(0); len(out) < n; lpn++ {
		if m.home(uint64(lpn)+1) == home {
			out = append(out, lpn)
		}
	}
	return out
}

// TestProbeRunWrapsPastTableEnd builds one run that starts in the last slot
// and continues at slot 0, then deletes from its head, middle and tail: the
// backward shift has to carry entries across the wrap.
func TestProbeRunWrapsPastTableEnd(t *testing.T) {
	for _, victim := range []int{0, 1, 2, 3} {
		p := newPair(t)
		p.set(0, 0) // allocates the 8-slot table
		p.del(0)
		last := len(p.m.slots) - 1
		keys := keysHomedAt(&p.m, last, 4)
		for i, lpn := range keys {
			p.set(lpn, int64(i))
		}
		for i, want := range []int{last, 0, 1, 2} {
			if got, _ := p.m.find(uint64(keys[i]) + 1); got != want {
				t.Fatalf("key %d of the run sits in slot %d, want %d", i, got, want)
			}
		}
		p.del(keys[victim])
		p.check(keys[3] + 1)
		if p.m.slots[2].key != 0 {
			t.Errorf("victim %d: the run did not shrink back across the wrap", victim)
		}
	}
}

// TestDeleteKeepsEntriesAtTheirHome: closing a gap must not pull an entry in
// front of its own home slot. Keys homed at slot 2 fill 2 and 3, keys homed
// at 4 fill 4 and 5 — one unbroken run — and deleting the head of the first
// pair must split the run at slot 3, not drag the second pair back.
func TestDeleteKeepsEntriesAtTheirHome(t *testing.T) {
	p := newPair(t)
	p.set(0, 0)
	p.del(0)
	a := keysHomedAt(&p.m, 2, 2)
	b := keysHomedAt(&p.m, 4, 2)
	for _, lpn := range append(a, b...) {
		p.set(lpn, lpn)
	}
	span := max(a[1], b[1]) + 1
	p.del(a[0])
	p.check(span)
	if i, _ := p.m.find(uint64(b[0]) + 1); i != 4 || p.m.slots[3].key != 0 {
		t.Errorf("key homed at 4 sits in slot %d, slot 3 holds key %d", i, p.m.slots[3].key)
	}
	p.set(a[0], 1) // lands in 3 and joins the runs again
	p.del(b[0])    // middle of the run: b[1] moves back to its home
	p.check(span)
	if i, _ := p.m.find(uint64(b[1]) + 1); i != 4 {
		t.Errorf("second key homed at 4 sits in slot %d after the middle delete", i)
	}
}

// TestGrowMidRun fills a single probe run up to the ¾ threshold and inserts
// once more: the doubled table must hold every entry of the old run.
func TestGrowMidRun(t *testing.T) {
	p := newPair(t)
	p.set(0, 0)
	p.del(0)
	keys := keysHomedAt(&p.m, 5, 7)
	for i, lpn := range keys[:6] {
		p.set(lpn, int64(i))
	}
	if len(p.m.slots) != 8 {
		t.Fatalf("table grew to %d slots at 6 entries", len(p.m.slots))
	}
	p.set(keys[6], 6)
	if len(p.m.slots) != 16 {
		t.Fatalf("table has %d slots after the 7th entry, want 16", len(p.m.slots))
	}
	p.check(keys[6] + 1)
}

func TestZeroValue(t *testing.T) {
	var m Map[int32]
	if _, ok := m.Get(3); ok || m.Len() != 0 || m.Delete(3) {
		t.Error("zero Map is not empty")
	}
	m.Set(3, 7)
	m.Set(math.MaxInt64, 9) // lpn+1 wraps to the top bit, still not the empty key
	if v, ok := m.Get(math.MaxInt64); !ok || v != 9 || m.Len() != 2 {
		t.Errorf("Get(MaxInt64) = %d, %v with Len %d", v, ok, m.Len())
	}
}

// TestNegativeLPN: a negative key is never present, and storing one is a
// caller bug — the page cache turns it away first (pagecache.ErrBadLPN).
func TestNegativeLPN(t *testing.T) {
	var m Map[int32]
	m.Set(0, 1)
	for _, lpn := range []int64{-1, -2, math.MinInt64} {
		if _, ok := m.Get(lpn); ok {
			t.Errorf("Get(%d) found an entry", lpn)
		}
		if m.Delete(lpn) {
			t.Errorf("Delete(%d) removed an entry", lpn)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", lpn)
				}
			}()
			m.Set(lpn, 1)
		}()
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d after rejected operations", m.Len())
	}
}

// TestSteadyStateZeroAlloc: at a constant size nothing allocates — not a
// lookup, not an overwrite, not a delete followed by an insert, however long
// that churn runs (no tombstones to rebuild away).
func TestSteadyStateZeroAlloc(t *testing.T) {
	var m Map[int64]
	const n = 3000
	for lpn := int64(0); lpn < n; lpn++ {
		m.Set(lpn*7, lpn)
	}
	lpn := int64(0)
	if avg := testing.AllocsPerRun(5000, func() {
		m.Get(lpn * 7)
		m.Get(lpn*7 + 1)
		m.Set(lpn*7, -lpn)
		m.Delete(lpn * 7)
		m.Set((lpn+n)*7, lpn)
		lpn++
	}); avg != 0 {
		t.Errorf("Get + overwrite + Delete/Set cycle allocates %.2f times per run, want 0", avg)
	}
	if m.Len() != n {
		t.Errorf("Len = %d, want %d", m.Len(), n)
	}
}
