package workload

import (
	randv2 "math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

// TestPageTableMatchesMap holds the page table to a Go map under random
// set, get and clear over LPNs up to 4·ws, so three quarters of them (all,
// for a table sized for 0 pages) lie past the directory newPageTable sized.
// Clearing a page of a chunk never set carves nothing and leaves the
// directory alone, one chunk is carved per distinct chunk set, and the
// arenas never hold more than twice the chunks handed out.
func TestPageTableMatchesMap(t *testing.T) {
	f := func(seed uint64, wsRaw uint16) bool {
		ws := int64(wsRaw%2000) + 1
		r := randv2.New(randv2.NewPCG(seed, 1))
		sized := ws
		if seed%2 == 0 {
			sized = 0 // as the engine tests size it: every chunk past the directory
		}
		tbl := newPageTable(sized)
		ref := map[int64]time.Duration{}
		touched := map[int64]bool{} // chunks with a page ever set
		for i := 0; i < 3000; i++ {
			lpn := r.Int64N(4 * ws)
			switch r.IntN(3) {
			case 0:
				v := time.Duration(r.Int64N(1<<40)) + 1
				tbl.set(lpn, v)
				ref[lpn] = v
				touched[lpn/chunkPages] = true
			case 1:
				carved, dir := tbl.carved, len(tbl.dir)
				tbl.clear(lpn)
				delete(ref, lpn)
				if !touched[lpn/chunkPages] && (tbl.carved != carved || len(tbl.dir) != dir) {
					t.Logf("ws %d: clearing never-set lpn %d allocated", ws, lpn)
					return false
				}
			}
			if got := tbl.get(lpn); got != ref[lpn] {
				t.Logf("ws %d: get(%d) = %v, want %v", ws, lpn, got, ref[lpn])
				return false
			}
			if tbl.carved != len(touched) || tbl.carved+len(tbl.arena) > 2*tbl.carved {
				t.Logf("ws %d: %d chunks carved (%d spare) for %d touched", ws, tbl.carved, len(tbl.arena), len(touched))
				return false
			}
		}
		for lpn := int64(0); lpn < 4*ws+chunkPages; lpn++ {
			if tbl.get(lpn) != ref[lpn] {
				t.Logf("ws %d: final get(%d) = %v, want %v", ws, lpn, tbl.get(lpn), ref[lpn])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
