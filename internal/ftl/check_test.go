package ftl

import (
	"strings"
	"testing"

	"jitgc/internal/nand"
)

// checkedFTL returns a small FTL with a few mapped pages and a passing
// consistency check, for corruption tests to break one invariant at a time.
func checkedFTL(t *testing.T) *FTL {
	t.Helper()
	f, err := New(quickGeometry())
	if err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 40; lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			t.Fatalf("Write(%d): %v", lpn, err)
		}
	}
	for lpn := int64(0); lpn < 10; lpn++ { // create invalid pages too
		if _, _, err := f.Write(lpn); err != nil {
			t.Fatalf("rewrite(%d): %v", lpn, err)
		}
	}
	f.UpdateSIP(true, []int64{1, 2, 3}, nil)
	if err := f.CheckConsistency(); err != nil {
		t.Fatalf("fresh FTL inconsistent: %v", err)
	}
	return f
}

func TestCheckConsistencyViolations(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(f *FTL)
		want    string
	}{
		{"l2p out of range", func(f *FTL) { f.l2p.set(0, f.cfg.Geometry.TotalPages()+7) }, "out-of-range ppn"},
		{"l2p p2l mismatch", func(f *FTL) { f.p2l.set(f.l2p.at(0), 9) }, "p2l says"},
		{"aliased mapping", func(f *FTL) { f.l2p.set(0, f.l2p.at(1)) }, "p2l says"},
		{"payload of wrong lpn", func(f *FTL) {
			// Swap two mappings wholesale: tables stay inverse, tokens don't.
			a, b := f.l2p.at(20), f.l2p.at(21)
			f.l2p.set(20, b)
			f.l2p.set(21, a)
			f.p2l.set(a, 21)
			f.p2l.set(b, 20)
		}, "holds payload of"},
		{"mapped to invalid page", func(f *FTL) {
			// lpn 5 was rewritten, so some stale copy of it is PageInvalid;
			// point the mapping back at one.
			ppb := f.cfg.Geometry.PagesPerBlock
			for ppn := int64(0); ppn < f.cfg.Geometry.TotalPages(); ppn++ {
				_, st, _ := f.dev.PeekPage(nand.AddrOfPPN(ppn, ppb))
				if st == nand.PageInvalid {
					f.p2l.set(f.l2p.at(5), unmapped)
					f.l2p.set(5, ppn)
					f.p2l.set(ppn, 5)
					return
				}
			}
			panic("no invalid page found")
		}, "state invalid"},
		{"orphaned valid page", func(f *FTL) {
			ppn := f.l2p.at(7)
			f.l2p.set(7, unmapped)
			f.p2l.set(ppn, unmapped)
		}, "reverse mapping"},
		{"p2l out of range", func(f *FTL) {
			for ppn := f.cfg.Geometry.TotalPages() - 1; ppn >= 0; ppn-- {
				if f.p2l.at(ppn) == unmapped {
					f.p2l.set(ppn, f.userPages+3)
					return
				}
			}
			panic("no unmapped ppn found")
		}, "out-of-range lpn"},
		{"free pool duplicate", func(f *FTL) { f.freeBlocks = append(f.freeBlocks, f.freeBlocks[0]) }, "twice"},
		{"free pool out of range", func(f *FTL) { f.freeBlocks = append(f.freeBlocks, -1) }, "out-of-range block"},
		{"active block pooled", func(f *FTL) { f.freeBlocks = append(f.freeBlocks, f.hostActive) }, "active block"},
		{"pool floor above a pooled block", func(f *FTL) {
			f.poolFloor = f.dev.EraseCount(f.freeBlocks[0]) + 1
		}, "free pool floor"},
		{"collection mark leaked", func(f *FTL) { f.collecting = f.freeBlocks[0] }, "being collected"},
		{"sip counter drift", func(f *FTL) { f.sipPerBlock[int(f.l2p.at(1))/f.cfg.Geometry.PagesPerBlock]++ }, "SIP pages"},
		{"sip bit lost", func(f *FTL) { f.sipBits[0] &^= 1 << 2 }, "SIP bitset holds 2 pages, installed count says 3"},
		{"sip bit stray", func(f *FTL) { f.sipBits[0] |= 1 << 50 }, "SIP bitset holds 4 pages, installed count says 3"},
		{"sip bit past the user pages", func(f *FTL) {
			f.sipBits[len(f.sipBits)-1] |= 1 << 63
			f.sipPages++
		}, "beyond the"},
		{"sip installed count drift", func(f *FTL) { f.sipPages-- }, "installed count says 2"},
		{"sip counter of an unlisted block", func(f *FTL) {
			// Every SIP page sits in one block; another block's counter is
			// one no install or clear walks over any more.
			f.sipPerBlock[(int(f.l2p.at(1))/f.cfg.Geometry.PagesPerBlock+1)%f.cfg.Geometry.TotalBlocks()] = 1
		}, "SIP pages"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := checkedFTL(t)
			tc.corrupt(f)
			err := f.CheckConsistency()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckConsistencyValidCountDrift(t *testing.T) {
	// A pooled block with a forged device-level counter must be caught via
	// the not-erased check; a non-pooled one via the recount.
	f := checkedFTL(t)
	ppn := f.l2p.at(3)
	blk := int(ppn) / f.cfg.Geometry.PagesPerBlock
	f.p2l.set(ppn, unmapped)
	f.l2p.set(3, unmapped)
	// Device still counts the page as valid but the mapping is gone: the
	// state/mapping cross-check fires before the recount does.
	if err := f.CheckConsistency(); err == nil ||
		!strings.Contains(err.Error(), "reverse mapping") {
		t.Fatalf("want reverse-mapping violation for block %d, got %v", blk, err)
	}
}
