package ftl

import (
	"fmt"
	"math/bits"

	"jitgc/internal/nand"
)

// CheckConsistency verifies the FTL's structural invariants against the
// NAND array it manages:
//
//   - the L2P and P2L tables are exact inverses (so the mapping is
//     injective: no two logical pages share a physical page),
//   - a physical page is PageValid if and only if it is mapped, and every
//     block's cached valid-page counter equals a recount of its mapped
//     pages (valid-page counts balance),
//   - the cached mapped-page counter — the live footprint that TRIM shrinks
//     and effective-OP accounting reads — equals a recount of mapped lpns
//     (the trimmed-page invariant),
//   - every mapped page's stored payload token carries the logical page
//     number it is mapped from (no aliasing or stale copies),
//   - the free pool holds distinct in-range blocks, none of them an active
//     block, every pooled block is fully erased, and none has fewer erases
//     than the floor takeFreeBlock's early exit trusts,
//   - no block is marked as being collected (the mark lives only inside
//     collectOnce), and the NAND array's incrementally kept wear figures
//     equal a recount,
//   - no retired block is in the free pool or serving as an active block,
//     and the recovery bookkeeping is sane: consecutive-program-failure
//     counters stay below the retirement threshold (reaching it retires
//     the block and resets the counter) and are zero for pooled blocks.
//
// The retirement invariants are what "the map stays consistent across
// recovered faults" means operationally: a recovered program, erase or
// read failure may shrink the device or drop a lost page, but must never
// leave a retired block allocatable or a mapping pointing into freed
// space.
//
// The check is read-only (it inspects the array via PeekPage, which touches
// no counters) and O(total pages); it exists for tests and property sweeps,
// not the simulation datapath. It returns the first violation found.
func (f *FTL) CheckConsistency() error {
	geo := f.cfg.Geometry
	ppb := geo.PagesPerBlock
	total := geo.TotalPages()

	// L2P → P2L, device state, and payload tokens.
	mapped := int64(0)
	for lpn := int64(0); lpn < f.userPages; lpn++ {
		ppn := f.l2p.at(lpn)
		if ppn == unmapped {
			continue
		}
		mapped++
		if ppn < 0 || ppn >= total {
			return fmt.Errorf("ftl: lpn %d maps to out-of-range ppn %d", lpn, ppn)
		}
		if back := f.p2l.at(ppn); back != lpn {
			return fmt.Errorf("ftl: lpn %d maps to ppn %d, but p2l says lpn %d", lpn, ppn, back)
		}
		tok, st, err := f.dev.PeekPage(nand.AddrOfPPN(ppn, ppb))
		if err != nil {
			return err
		}
		if st != nand.PageValid {
			return fmt.Errorf("ftl: lpn %d maps to ppn %d in state %v", lpn, ppn, st)
		}
		if got := tokenLPN(tok); f.integrity && got != lpn {
			return fmt.Errorf("ftl: ppn %d mapped from lpn %d holds payload of lpn %d", ppn, lpn, got)
		}
	}

	// P2L → L2P, and valid-page counts per block.
	p2lMapped := int64(0)
	for b := 0; b < geo.TotalBlocks(); b++ {
		validHere := 0
		for p := 0; p < ppb; p++ {
			ppn := int64(b)*int64(ppb) + int64(p)
			lpn := f.p2l.at(ppn)
			_, st, err := f.dev.PeekPage(nand.PageAddr{Block: b, Page: p})
			if err != nil {
				return err
			}
			if lpn != unmapped {
				p2lMapped++
				if lpn < 0 || lpn >= f.userPages {
					return fmt.Errorf("ftl: ppn %d reverse-maps to out-of-range lpn %d", ppn, lpn)
				}
				if f.l2p.at(lpn) != ppn {
					return fmt.Errorf("ftl: ppn %d reverse-maps to lpn %d, but l2p says ppn %d", ppn, lpn, f.l2p.at(lpn))
				}
			}
			if (st == nand.PageValid) != (lpn != unmapped) {
				return fmt.Errorf("ftl: ppn %d state %v but reverse mapping %d", ppn, st, lpn)
			}
			if st == nand.PageValid {
				validHere++
			}
		}
		if got := f.dev.ValidCount(b); got != validHere {
			return fmt.Errorf("ftl: block %d caches %d valid pages, recount says %d", b, got, validHere)
		}
	}
	if mapped != p2lMapped {
		return fmt.Errorf("ftl: %d mapped lpns but %d mapped ppns", mapped, p2lMapped)
	}
	// Trimmed-page invariant: the cached live-footprint counter (which TRIM
	// shrinks and the effective-OP accounting reads) must equal the recount.
	if mapped != f.mappedPages {
		return fmt.Errorf("ftl: cached mapped-page count %d, recount says %d", f.mappedPages, mapped)
	}

	// Free pool sanity.
	seen := make(map[int]bool, len(f.freeBlocks))
	for _, b := range f.freeBlocks {
		if b < 0 || b >= geo.TotalBlocks() {
			return fmt.Errorf("ftl: free pool holds out-of-range block %d", b)
		}
		if seen[b] {
			return fmt.Errorf("ftl: free pool holds block %d twice", b)
		}
		seen[b] = true
		if b == f.hostActive || b == f.gcActive {
			return fmt.Errorf("ftl: active block %d is in the free pool", b)
		}
		if f.dev.WritePtr(b) != 0 || f.dev.ValidCount(b) != 0 {
			return fmt.Errorf("ftl: pooled block %d not erased (ptr %d, valid %d)",
				b, f.dev.WritePtr(b), f.dev.ValidCount(b))
		}
		if f.dev.Retired(b) {
			return fmt.Errorf("ftl: retired block %d is in the free pool", b)
		}
		if f.progFails[b] != 0 {
			return fmt.Errorf("ftl: pooled block %d carries %d program failures", b, f.progFails[b])
		}
		// The floor is what lets takeFreeBlock stop early; one above a
		// pooled block's count would make it pass that block over.
		if f.dev.EraseCount(b) < f.poolFloor {
			return fmt.Errorf("ftl: free pool floor %d above pooled block %d at %d erases",
				f.poolFloor, b, f.dev.EraseCount(b))
		}
	}

	if f.collecting != -1 {
		return fmt.Errorf("ftl: block %d marked as being collected outside a collection", f.collecting)
	}
	if err := f.dev.CheckWear(); err != nil {
		return err
	}

	// Retirement and recovery bookkeeping.
	for _, active := range []int{f.hostActive, f.gcActive} {
		if active >= 0 && f.dev.Retired(active) {
			return fmt.Errorf("ftl: active block %d is retired", active)
		}
	}
	if f.recoveryOn {
		for b := 0; b < geo.TotalBlocks(); b++ {
			if f.progFails[b] >= f.recovery.ProgramRetireThreshold {
				return fmt.Errorf("ftl: block %d at %d consecutive program failures, threshold %d",
					b, f.progFails[b], f.recovery.ProgramRetireThreshold)
			}
		}
	}

	// SIP bookkeeping: the bitset names user pages only, as many as the
	// installed count says, and the per-block counters must recount exactly
	// from it.
	sipPages, sipCount := 0, make([]int, geo.TotalBlocks())
	for w, word := range f.sipBits {
		for ; word != 0; word &= word - 1 {
			lpn := int64(w)<<6 | int64(bits.TrailingZeros64(word))
			if lpn >= f.userPages {
				return fmt.Errorf("ftl: SIP bitset holds lpn %d beyond the %d user pages", lpn, f.userPages)
			}
			sipPages++
			if ppn := f.l2p.at(lpn); ppn != unmapped {
				sipCount[int(ppn)/ppb]++
			}
		}
	}
	if sipPages != f.sipPages {
		return fmt.Errorf("ftl: SIP bitset holds %d pages, installed count says %d", sipPages, f.sipPages)
	}
	for b := range sipCount {
		if f.sipPerBlock[b] != sipCount[b] {
			return fmt.Errorf("ftl: block %d caches %d SIP pages, recount says %d", b, f.sipPerBlock[b], sipCount[b])
		}
	}

	return f.checkVictimIndex()
}

// checkVictimIndex verifies the incremental victim index against ground
// truth: the free-pool bitmap mirrors the pool, index membership equals
// the eligibility predicate (in particular, retired and pooled blocks are
// absent), every member's leaf key names its own block and the device's
// valid count, every bucket holds exactly the members of its valid count
// with intact links and an exact champion, the size/valid-sum aggregates
// balance, every internal tournament node is the minimum of its children,
// and the root is the reference greedy victim.
func (f *FTL) checkVictimIndex() error {
	geo := f.cfg.Geometry
	ix := f.idx

	pooled := make(map[int]bool, len(f.freeBlocks))
	for _, b := range f.freeBlocks {
		pooled[b] = true
	}
	for b := 0; b < geo.TotalBlocks(); b++ {
		if f.inFreePool[b] != pooled[b] {
			return fmt.Errorf("ftl: inFreePool[%d]=%v but free pool membership is %v",
				b, f.inFreePool[b], pooled[b])
		}
	}

	refGreedy := -1
	for b := 0; b < geo.TotalBlocks(); b++ {
		want := f.indexEligible(b)
		if ix.contains(b) != want {
			if ix.contains(b) && f.dev.Retired(b) {
				return fmt.Errorf("ftl: retired block %d in victim index", b)
			}
			return fmt.Errorf("ftl: block %d index membership %v, eligibility %v",
				b, ix.contains(b), want)
		}
		if !want {
			continue
		}
		if leaf := ix.tree[ix.leafBase+b]; int(uint32(leaf)) != b {
			return fmt.Errorf("ftl: tournament leaf for block %d holds key %#x, which names block %d",
				b, leaf, uint32(leaf))
		}
		if got := ix.valid(b); got != f.dev.ValidCount(b) {
			return fmt.Errorf("ftl: index caches %d valid pages for block %d, device says %d",
				got, b, f.dev.ValidCount(b))
		}
		if refGreedy < 0 || f.dev.ValidCount(b) < f.dev.ValidCount(refGreedy) {
			refGreedy = b
		}
	}

	members, sumValid := 0, int64(0)
	for v := 0; v < geo.PagesPerBlock; v++ {
		champ := int32(-1)
		prev := int32(-1)
		for m := ix.bhead[v]; m >= 0; m = ix.next[m] {
			b := int(m)
			if !ix.contains(b) || ix.valid(b) != v {
				return fmt.Errorf("ftl: block %d threaded on bucket %d (member %v, valid %d)",
					b, v, ix.contains(b), ix.valid(b))
			}
			if ix.prev[b] != prev {
				return fmt.Errorf("ftl: bucket %d member %d has prev %d, want %d",
					v, b, ix.prev[b], prev)
			}
			if champ < 0 || ix.older(b, int(champ)) {
				champ = m
			}
			members++
			sumValid += int64(v)
			if members > ix.size {
				return fmt.Errorf("ftl: bucket lists hold more than the %d indexed blocks (cycle?)", ix.size)
			}
			prev = m
		}
		if ix.champ[v] != champ {
			return fmt.Errorf("ftl: bucket %d champion %d, recomputed %d", v, ix.champ[v], champ)
		}
	}
	if members != ix.size {
		return fmt.Errorf("ftl: index size %d but buckets hold %d blocks", ix.size, members)
	}
	if sumValid != ix.sumValid {
		return fmt.Errorf("ftl: index valid-page sum %d, recount says %d", ix.sumValid, sumValid)
	}

	// Member leaves were checked above; the padding leaves past the last
	// block must stay empty, and every internal node must hold the winner of
	// its two children — the invariant setLeaf's early exit relies on.
	for i := ix.leafBase + geo.TotalBlocks(); i < len(ix.tree); i++ {
		if ix.tree[i] != emptyKey {
			return fmt.Errorf("ftl: tournament leaf %d past the last block holds key %#x", i, ix.tree[i])
		}
	}
	for i := 1; i < ix.leafBase; i++ {
		if want := min(ix.tree[2*i], ix.tree[2*i+1]); ix.tree[i] != want {
			return fmt.Errorf("ftl: tournament node %d holds key %#x, children give %#x", i, ix.tree[i], want)
		}
	}
	if got := ix.greedyVictim(); got != refGreedy && !(got < 0 && refGreedy < 0) {
		return fmt.Errorf("ftl: index greedy victim %d, reference scan says %d", got, refGreedy)
	}
	return nil
}
