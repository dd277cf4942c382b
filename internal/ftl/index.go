package ftl

import (
	"fmt"
	"time"
)

// victimIndex incrementally maintains the set of GC-eligible blocks — the
// exact set appendCandidates would enumerate with a full scan — so victim
// selection never walks cold blocks and never allocates. It answers the
// three built-in selection policies without materializing a candidate
// slice:
//
//   - Greedy: a tournament tree over all blocks holds the greedy winner at
//     its root. A node is a packed valid<<32|block key (emptyKey for a
//     non-member), so the lexicographic (valid pages, block index) order is
//     one integer comparison and a match is one min. Reads are O(1).
//   - Cost-Benefit: blocks are threaded onto doubly-linked buckets keyed
//     by valid-page count. Each bucket caches its champion — the member
//     minimizing (lastInvalidate, index), which is the bucket's maximum
//     cost-benefit score with the scan tie-break — so a selection compares
//     at most PagesPerBlock champions instead of every block.
//   - SIP-Greedy: the bounded frontier of buckets within SlackPages of the
//     greedy choice is walked directly; blocks outside it are never
//     touched.
//
// Updates are O(1) for the bucket links. A tree update replays matches from
// the leaf only as far as they change a node: log2(B) levels at worst, but
// a block that is not its subtree's minimum stops at the first node its
// sibling subtree already wins, so the mean is a small constant
// independent of B (TestInvalidationRewritesFewNodes). The other amortized
// operation is re-scanning a bucket when its cached champion leaves; the
// champion is the bucket's oldest member, so under random traffic the
// rescan triggers on ~1/len(bucket) of removals.
//
// The leaf key is also the index's only record of membership and of a
// member's valid count. The block a collection is emptying is not a member:
// collectOnce takes it out for the duration, so its per-page invalidations
// never reach the tree.
//
// The index's answers are bit-for-bit identical to the retired full-scan
// selectors, including every deterministic tie-break — the golden
// renderings depend on this, and the differential property test in
// index_test.go plus CheckConsistency's index invariants enforce it.
type victimIndex struct {
	ppb     int
	lastInv []time.Duration // shared with the owning FTL; never reallocated

	next  []int32 // bucket forward links, -1 terminated
	prev  []int32 // bucket backward links, -1 at head
	bhead []int32 // bucket heads per valid count v in [0, ppb-1], -1 empty
	champ []int32 // per bucket: member minimizing (lastInv, index), -1 empty

	size     int   // number of member blocks
	sumValid int64 // sum of members' valid counts, for GC bandwidth estimation

	leafBase int      // tree slot of block 0; power of two ≥ block count
	tree     []uint64 // 1-indexed tournament tree of packed keys
}

// emptyKey is the tree value of a non-member leaf and of a subtree with no
// members. It compares above every real key.
const emptyKey = ^uint64(0)

// packKey builds the tournament key of block b holding valid valid pages.
func packKey(b, valid int) uint64 { return uint64(valid)<<32 | uint64(uint32(b)) }

// newVictimIndex builds an empty index over nblocks blocks of ppb pages,
// sharing the FTL's lastInvalidate slice for champion ordering.
func newVictimIndex(nblocks, ppb int, lastInv []time.Duration) *victimIndex {
	leafBase := 1
	for leafBase < nblocks {
		leafBase <<= 1
	}
	ix := &victimIndex{
		ppb:      ppb,
		lastInv:  lastInv,
		next:     make([]int32, nblocks),
		prev:     make([]int32, nblocks),
		bhead:    make([]int32, ppb),
		champ:    make([]int32, ppb),
		leafBase: leafBase,
		tree:     make([]uint64, 2*leafBase),
	}
	ix.reset()
	return ix
}

// reset empties the index in place (snapshot restore rebuilds from scratch).
func (ix *victimIndex) reset() {
	for i := range ix.bhead {
		ix.bhead[i] = -1
		ix.champ[i] = -1
	}
	for i := range ix.tree {
		ix.tree[i] = emptyKey
	}
	ix.size = 0
	ix.sumValid = 0
}

// bytes returns the heap footprint of the index's arrays (the shared
// lastInvalidate slice is charged to the FTL, not here).
func (ix *victimIndex) bytes() int64 {
	n := int64(len(ix.next)) * (4 + 4)  // next, prev
	n += int64(len(ix.bhead)) * (4 + 4) // bhead, champ
	n += int64(len(ix.tree)) * 8
	return n
}

// greedyVictim returns the member minimizing (valid, index) — the exact
// greedy choice — or -1 when the index is empty. O(1).
func (ix *victimIndex) greedyVictim() int {
	if ix.tree[1] == emptyKey {
		return -1
	}
	return int(uint32(ix.tree[1]))
}

// contains reports membership.
func (ix *victimIndex) contains(b int) bool { return ix.tree[ix.leafBase+b] != emptyKey }

// valid returns member b's valid-page count as the index last saw it.
func (ix *victimIndex) valid(b int) int { return int(ix.tree[ix.leafBase+b] >> 32) }

// insert adds block b with the given valid count.
func (ix *victimIndex) insert(b, valid int) {
	if ix.contains(b) {
		panic(fmt.Sprintf("ftl: victim index double-insert of block %d", b))
	}
	if valid < 0 || valid >= ix.ppb {
		panic(fmt.Sprintf("ftl: victim index insert of block %d with valid %d", b, valid))
	}
	ix.bucketInsert(b, valid)
	ix.size++
	ix.sumValid += int64(valid)
	ix.setLeaf(b, packKey(b, valid))
}

// remove deletes block b from the index.
func (ix *victimIndex) remove(b int) {
	if !ix.contains(b) {
		panic(fmt.Sprintf("ftl: victim index remove of absent block %d", b))
	}
	old := ix.valid(b)
	ix.bucketRemove(b, old)
	ix.size--
	ix.sumValid -= int64(old)
	ix.setLeaf(b, emptyKey)
}

// updateValid moves member b to the bucket of its new valid count. A
// no-op when the count is unchanged: lastInvalidate only moves together
// with a valid-count change, so an equal count means an identical key.
func (ix *victimIndex) updateValid(b, valid int) {
	old := ix.valid(b)
	if old == valid {
		return
	}
	ix.bucketRemove(b, old)
	ix.bucketInsert(b, valid)
	ix.sumValid += int64(valid - old)
	ix.setLeaf(b, packKey(b, valid))
}

// older reports whether a precedes c in champion order: ascending
// (lastInvalidate, index). The oldest last invalidation maximizes the
// cost-benefit age term; the index tie-break mirrors the full scan's.
func (ix *victimIndex) older(a, c int) bool {
	la, lc := ix.lastInv[a], ix.lastInv[c]
	if la != lc {
		return la < lc
	}
	return a < c
}

// bucketInsert links b at the head of bucket v and refreshes the champion.
func (ix *victimIndex) bucketInsert(b, v int) {
	h := ix.bhead[v]
	ix.next[b], ix.prev[b] = h, -1
	if h >= 0 {
		ix.prev[h] = int32(b)
	}
	ix.bhead[v] = int32(b)
	if c := ix.champ[v]; c < 0 || ix.older(b, int(c)) {
		ix.champ[v] = int32(b)
	}
}

// bucketRemove unlinks b from bucket v, re-scanning for a new champion
// only when b held the title.
func (ix *victimIndex) bucketRemove(b, v int) {
	if p := ix.prev[b]; p >= 0 {
		ix.next[p] = ix.next[b]
	} else {
		ix.bhead[v] = ix.next[b]
	}
	if n := ix.next[b]; n >= 0 {
		ix.prev[n] = ix.prev[b]
	}
	if int(ix.champ[v]) == b {
		best := int32(-1)
		for m := ix.bhead[v]; m >= 0; m = ix.next[m] {
			if best < 0 || ix.older(int(m), int(best)) {
				best = m
			}
		}
		ix.champ[v] = best
	}
}

// setLeaf writes b's tree leaf and replays its matches toward the root,
// stopping at the first node whose winner does not change: every node
// above that one already holds the minimum of an unchanged pair.
func (ix *victimIndex) setLeaf(b int, key uint64) {
	i := ix.leafBase + b
	ix.tree[i] = key
	for i > 1 {
		m := min(ix.tree[i], ix.tree[i^1])
		i >>= 1
		if ix.tree[i] == m {
			return
		}
		ix.tree[i] = m
	}
}

// indexEligible reports whether block b belongs in the victim index: fully
// written, not pooled, not an active stream, not being collected, not
// retired, and holding at least one reclaimable page. This is the
// membership predicate the incremental hooks and CheckConsistency both
// evaluate; it must match what appendCandidates enumerates.
func (f *FTL) indexEligible(b int) bool {
	ppb := f.cfg.Geometry.PagesPerBlock
	return !f.inFreePool[b] && b != f.hostActive && b != f.gcActive && b != f.collecting &&
		!f.dev.Retired(b) && f.dev.WritePtr(b) >= ppb && f.dev.ValidCount(b) < ppb
}

// syncIndex reconciles block b's index membership and bucket after any
// state change that can affect its eligibility or key. All FTL mutation
// paths funnel through this hook.
func (f *FTL) syncIndex(b int) {
	if f.indexEligible(b) {
		if f.idx.contains(b) {
			f.idx.updateValid(b, f.dev.ValidCount(b))
		} else {
			f.idx.insert(b, f.dev.ValidCount(b))
		}
	} else if f.idx.contains(b) {
		f.idx.remove(b)
	}
}

// rebuildVictimIndex repopulates the index from device state, used after a
// snapshot restore (the index, like the reverse map, is derived state that
// does not survive a power cycle in serialized form).
func (f *FTL) rebuildVictimIndex() {
	f.idx.reset()
	for b := 0; b < f.cfg.Geometry.TotalBlocks(); b++ {
		if f.indexEligible(b) {
			f.idx.insert(b, f.dev.ValidCount(b))
		}
	}
}
