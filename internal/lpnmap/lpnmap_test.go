package lpnmap

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestMapMatchesGoMap holds the table to a Go map under random Set, Get and
// Clear, on the zero Table and on one NewTable sized for part of the range.
// Spans run from 16 LPNs, where overwrites and clears of set pages are
// common, to 2^20, where the directory doubles several times past its size.
// Clearing a page of a chunk never set carves nothing and leaves the
// directory alone, one chunk is carved per distinct chunk set, and no arena
// holds more spare chunks than are carved (or one minimum arena).
func TestMapMatchesGoMap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := int64(16) << rng.Intn(17)
		var tbl Table[int64]
		if seed%2 == 0 {
			tbl = NewTable[int64](rng.Int63n(span + 1))
		}
		ref := map[int64]int64{}
		touched := map[int64]bool{} // chunks with a page ever set
		for step := 0; step < 3000; step++ {
			lpn := rng.Int63n(span)
			switch k := rng.Intn(100); {
			case k < 50:
				v := rng.Int63n(1<<40) + 1
				tbl.Set(lpn, v)
				ref[lpn] = v
				touched[lpn/chunkPages] = true
			case k < 65:
			default:
				carved, dir := tbl.carved, len(tbl.dir)
				tbl.Clear(lpn)
				delete(ref, lpn)
				if !touched[lpn/chunkPages] && (tbl.carved != carved || len(tbl.dir) != dir) {
					t.Logf("span %d: clearing never-set lpn %d allocated", span, lpn)
					return false
				}
			}
			if got := tbl.Get(lpn); got != ref[lpn] {
				t.Logf("span %d: Get(%d) = %d, want %d", span, lpn, got, ref[lpn])
				return false
			}
			if tbl.carved != len(touched) || tbl.carved+len(tbl.arena) > len(tbl.dir) ||
				len(tbl.arena) >= max(tbl.carved, minArena) {
				t.Logf("span %d: %d chunks carved (%d spare, directory %d) for %d touched",
					span, tbl.carved, len(tbl.arena), len(tbl.dir), len(touched))
				return false
			}
		}
		for lpn := int64(0); lpn < span+chunkPages; lpn++ {
			if tbl.Get(lpn) != ref[lpn] {
				t.Logf("span %d: final Get(%d) = %d, want %d", span, lpn, tbl.Get(lpn), ref[lpn])
				return false
			}
		}
		n, prev := 0, int64(-1)
		for lpn, v := range tbl.All() {
			if lpn <= prev || v != ref[lpn] {
				t.Logf("span %d: All yields lpn %d = %d after lpn %d, reference %d", span, lpn, v, prev, ref[lpn])
				return false
			}
			n, prev = n+1, lpn
		}
		if n != len(ref) {
			t.Logf("span %d: All yields %d entries, reference %d", span, n, len(ref))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestChunkAllocationsLogarithmic carves n chunks in random order, on the
// zero Table (whose directory doubles as it goes) and on one sized for them:
// the arenas and the directory cost O(log n) allocations, not one per chunk.
func TestChunkAllocationsLogarithmic(t *testing.T) {
	const n = 1 << 12
	order := rand.New(rand.NewSource(1)).Perm(n)
	for _, sized := range []bool{false, true} {
		var tbl Table[int32]
		allocs := testing.AllocsPerRun(1, func() {
			tbl = Table[int32]{}
			if sized {
				tbl = NewTable[int32](n * chunkPages)
			}
			for _, c := range order {
				tbl.Set(int64(c)*chunkPages+int64(c%chunkPages), 1)
			}
		})
		if tbl.carved != n {
			t.Fatalf("sized %v: %d chunks carved, want %d", sized, tbl.carved, n)
		}
		if limit := float64(2 * bits.Len(n)); allocs > limit {
			t.Errorf("sized %v: carving %d chunks took %.0f allocations, want at most %.0f", sized, n, allocs, limit)
		}
	}
}

// TestZeroValue: the zero Table reads zero everywhere, clears without
// allocating, covers 65,536 LPNs on its first Set, and doubles its
// directory when outgrown.
func TestZeroValue(t *testing.T) {
	var m Table[int32]
	m.Clear(3)
	if m.Get(3) != 0 || m.dir != nil || m.carved != 0 {
		t.Error("zero Table is not empty, or a Clear allocated")
	}
	m.Set(3, 7)
	m.Set(1<<16-1, 9)
	if len(m.dir)*chunkPages != 1<<16 {
		t.Errorf("directory covers %d LPNs after Sets below 65,536", len(m.dir)*chunkPages)
	}
	m.Set(1<<16, 5)
	if len(m.dir)*chunkPages != 1<<17 {
		t.Errorf("directory covers %d LPNs after outgrowing 65,536, want it doubled", len(m.dir)*chunkPages)
	}
	if m.Get(3) != 7 || m.Get(1<<16-1) != 9 || m.Get(1<<16) != 5 || m.Get(1<<17) != 0 || m.Get(math.MaxInt64) != 0 {
		t.Errorf("Get after growth: %d %d %d %d", m.Get(3), m.Get(1<<16-1), m.Get(1<<16), m.Get(1<<17))
	}
	if sized := NewTable[int32](27); len(sized.dir) != 1 {
		t.Errorf("NewTable(27) directory holds %d chunks, want 1", len(sized.dir))
	}
}

// TestNegativeLPN: a negative key is never present, and storing one is a
// caller bug — the page cache turns it away first (pagecache.ErrBadLPN).
func TestNegativeLPN(t *testing.T) {
	var m Table[int32]
	m.Set(0, 1)
	for _, lpn := range []int64{-1, -2, -chunkPages, math.MinInt64} {
		if m.Get(lpn) != 0 {
			t.Errorf("Get(%d) found an entry", lpn)
		}
		m.Clear(lpn)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", lpn)
				}
			}()
			m.Set(lpn, 1)
		}()
	}
	if m.Get(0) != 1 || m.carved != 1 {
		t.Errorf("Get(0) = %d with %d chunks carved after rejected operations", m.Get(0), m.carved)
	}
}

// TestSteadyStateZeroAlloc: once the chunks a working set touches are
// carved, nothing allocates — not a lookup, not an overwrite, not a clear
// followed by a set, however long that churn runs.
func TestSteadyStateZeroAlloc(t *testing.T) {
	var m Table[int64]
	const n = 3000
	for lpn := int64(0); lpn < n; lpn++ {
		m.Set(lpn*7, lpn+1)
	}
	lpn := int64(0)
	if avg := testing.AllocsPerRun(5000, func() {
		p := lpn % n * 7
		m.Get(p)
		m.Get(p + 1)
		m.Set(p, -lpn)
		m.Clear(p)
		m.Set(p, lpn+1)
		lpn++
	}); avg != 0 {
		t.Errorf("Get + overwrite + Clear/Set cycle allocates %.2f times per run, want 0", avg)
	}
}
