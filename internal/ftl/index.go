package ftl

import "fmt"

// victimIndex incrementally maintains the set of GC-eligible blocks — the
// exact set a full scan would enumerate — as one tournament tree over all
// blocks, so victim selection never allocates. A node is a packed
// valid<<32|block key (emptyKey for a non-member), so the lexicographic
// (valid pages, block index) order is one integer comparison, a match is
// one min, and every node holds its subtree's minimum key. It answers the
// three Selector kinds:
//
//   - Greedy: the root is the greedy winner. O(1).
//   - SIP-Greedy: each walks the members within sipSlackPages of the
//     greedy choice, skipping every subtree whose minimum lies above that
//     bound; blocks outside the frontier are passed over a subtree at a
//     time.
//   - Cost-Benefit: each walks every member (the ablation-only path).
//
// A tree update replays matches from the leaf only as far as they change a
// node: log2(B) levels at worst, but a block that is not its subtree's
// minimum stops at the first node its sibling subtree already wins, so the
// mean is a small constant independent of B
// (TestInvalidationRewritesFewNodes).
//
// The leaf key is the index's only record of membership and of a member's
// valid count. The block a collection is emptying is not a member:
// collectOnce takes it out for the duration, so its per-page invalidations
// never reach the tree.
//
// The index's answers are bit-for-bit identical to the full-scan reference
// selectors in gc_test.go, including every deterministic tie-break — the
// golden renderings depend on this, and the differential property test in
// index_test.go plus CheckConsistency's index invariants enforce it.
type victimIndex struct {
	ppb      int
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

// newVictimIndex builds an empty index over nblocks blocks of ppb pages.
func newVictimIndex(nblocks, ppb int) *victimIndex {
	leafBase := 1
	for leafBase < nblocks {
		leafBase <<= 1
	}
	ix := &victimIndex{ppb: ppb, leafBase: leafBase, tree: make([]uint64, 2*leafBase)}
	for i := range ix.tree {
		ix.tree[i] = emptyKey
	}
	return ix
}

// bytes returns the heap footprint of the index.
func (ix *victimIndex) bytes() int64 { return int64(len(ix.tree)) * 8 }

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

// each calls fn(b, valid) for every member b holding at most limit valid
// pages, in ascending block order. A subtree whose minimum key is at or
// above (limit+1)<<32 holds no such member and is skipped whole. The
// depth-first stack is a fixed array (a tree over 2^31 blocks is 32 levels
// deep), so a walk allocates nothing.
func (ix *victimIndex) each(limit int, fn func(b, valid int)) {
	bound := uint64(limit+1) << 32
	var stack [64]int
	stack[0] = 1
	for n := 1; n > 0; {
		n--
		i := stack[n]
		if ix.tree[i] >= bound {
			continue
		}
		if i >= ix.leafBase {
			fn(i-ix.leafBase, int(ix.tree[i]>>32))
			continue
		}
		stack[n], stack[n+1] = 2*i+1, 2*i // left child on top: block order
		n += 2
	}
}

// insert adds block b with the given valid count.
func (ix *victimIndex) insert(b, valid int) {
	if ix.contains(b) {
		panic(fmt.Sprintf("ftl: victim index double-insert of block %d", b))
	}
	if valid < 0 || valid >= ix.ppb {
		panic(fmt.Sprintf("ftl: victim index insert of block %d with valid %d", b, valid))
	}
	ix.size++
	ix.sumValid += int64(valid)
	ix.setLeaf(b, packKey(b, valid))
}

// remove deletes block b from the index.
func (ix *victimIndex) remove(b int) {
	if !ix.contains(b) {
		panic(fmt.Sprintf("ftl: victim index remove of absent block %d", b))
	}
	ix.size--
	ix.sumValid -= int64(ix.valid(b))
	ix.setLeaf(b, emptyKey)
}

// updateValid rekeys member b to its new valid count; a no-op when the
// count is unchanged.
func (ix *victimIndex) updateValid(b, valid int) {
	old := ix.valid(b)
	if old == valid {
		return
	}
	ix.sumValid += int64(valid - old)
	ix.setLeaf(b, packKey(b, valid))
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
// evaluate.
func (f *FTL) indexEligible(b int) bool {
	ppb := f.cfg.Geometry.PagesPerBlock
	return !f.inFreePool[b] && b != f.hostActive && b != f.gcActive && b != f.collecting &&
		!f.dev.Retired(b) && f.dev.WritePtr(b) >= ppb && f.dev.ValidCount(b) < ppb
}

// syncIndex reconciles block b's index membership and valid count after
// any state change that can affect either. All FTL mutation paths funnel
// through this hook.
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
