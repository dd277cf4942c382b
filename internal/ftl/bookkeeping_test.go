package ftl

import (
	"errors"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"jitgc/internal/nand"
)

// TestInvalidationRewritesFewNodes is the size-independence claim as a
// count, with no wall clock involved: around each of 10,000 random
// overwrites at 8,192 blocks (a 14-level tournament) the tree is diffed,
// and the mean number of nodes rewritten — by the invalidation and by any
// block allocation or foreground collection the write brought with it —
// must stay a small constant. The full-height replay this replaced rewrote
// 14 per invalidation and 14 more per migrated page.
//
// The device is in the scale experiment's regime (random overwrites of a
// live set that is 75% of user capacity, WAF ≈ 1.9). The mean is not free
// of the workload: each collection removes the tree's root, a full-height
// replay, so it grows with collections per write (4.3 at WAF 7).
func TestInvalidationRewritesFewNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("preconditions an 8,192-block device")
	}
	f, err := New(benchGeometry(8192))
	if err != nil {
		t.Fatal(err)
	}
	live := f.UserPages() * 3 / 4
	for lpn := int64(0); lpn < live; lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := int64(0); i < live; i++ {
		if _, _, err := f.Write(rng.Int63n(live)); err != nil {
			t.Fatal(err)
		}
	}
	f.ResetStats()

	height := bits.Len(uint(f.idx.leafBase))
	before := make([]uint64, len(f.idx.tree))
	const writes = 10000
	rewritten := 0
	for i := 0; i < writes; i++ {
		copy(before, f.idx.tree)
		if _, _, err := f.Write(rng.Int63n(live)); err != nil {
			t.Fatal(err)
		}
		for j, k := range f.idx.tree {
			if k != before[j] {
				rewritten++
			}
		}
	}
	mean := float64(rewritten) / writes
	st := f.Stats()
	t.Logf("%.2f tree nodes rewritten per overwrite at WAF %.2f; a full-height replay per invalidation and per migration rewrote %.1f",
		mean, st.WAF(), float64(height)*float64(st.HostPrograms+st.GCMigrations)/writes)
	if mean > 3 {
		t.Errorf("mean %.2f tree nodes rewritten per overwrite, want ≤ 3", mean)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConsistencyPaddingLeaf: at a block count that is not a power of
// two the tournament has leaves no block owns; one holding a key is a
// violation.
func TestCheckConsistencyPaddingLeaf(t *testing.T) {
	f := steadyFTL(t, oddGeometry())
	if err := f.CheckConsistency(); err != nil {
		t.Fatalf("steady FTL inconsistent: %v", err)
	}
	f.idx.tree[len(f.idx.tree)-1] = packKey(0, 0)
	if err := f.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "past the last block") {
		t.Fatalf("occupied padding leaf: got %v", err)
	}
}

// midCollectionFault is a raw injector that fails one operation of a kind
// after letting some through, and watches the index on every operation it
// is consulted for: while a collection runs, its victim must not be a
// member.
type midCollectionFault struct {
	f     *FTL
	op    nand.Op
	after int // operations of the kind to let through first
	fails int // how many to fail after that

	victimIndexed bool // the block being collected was seen in the index
	sawCollection bool // consulted at least once mid-collection
}

func (m *midCollectionFault) ShouldFail(op nand.Op, _ nand.PageAddr) bool {
	if c := m.f.collecting; c >= 0 {
		m.sawCollection = true
		if m.f.idx.contains(c) {
			m.victimIndexed = true
		}
	}
	if op != m.op || m.fails == 0 {
		return false
	}
	if m.after > 0 {
		m.after--
		return false
	}
	m.fails--
	return true
}

// TestVictimOutOfIndexDuringCollection: the victim is out of the index
// while it is emptied, and every way a collection can end — aborted by a
// raw read, program or erase failure, completed around a page recovery gave
// up on, or retired at the erase — leaves it either back in the index at
// its true valid count or out for good, with the audit clean.
func TestVictimOutOfIndexDuringCollection(t *testing.T) {
	cases := []struct {
		name     string
		recovery bool
		op       nand.Op
		after    int
		fails    int
		wantErr  bool
		// where the victim must be afterwards
		indexed, pooled, retired bool
		// migrated is how many of its valid pages left before the end, -1
		// for all of them.
		migrated int
	}{
		{name: "raw read fault aborts", op: nand.OpRead, after: 1, fails: 1,
			wantErr: true, indexed: true, migrated: 1},
		{name: "raw program fault aborts", op: nand.OpProgram, after: 1, fails: 1,
			wantErr: true, indexed: true, migrated: 1},
		{name: "raw erase fault aborts", op: nand.OpErase, fails: 1,
			wantErr: true, indexed: true, migrated: -1},
		// Recovery exhausts its retries on one page and drops it: the drop
		// invalidates a page of the victim mid-collection, which must not
		// put the victim back in the index early.
		{name: "unrecoverable read is dropped", recovery: true, op: nand.OpRead, after: 1, fails: 4,
			pooled: true, migrated: -1},
		{name: "recovered erase fault retires", recovery: true, op: nand.OpErase, fails: 1,
			retired: true, migrated: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Recovery.Enabled = tc.recovery
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dirty(t, f, 300)
			victim := f.idx.greedyVictim()
			validBefore := f.dev.ValidCount(victim)
			if validBefore < 3 {
				t.Fatalf("victim %d holds %d valid pages; the case needs a mid-collection fault", victim, validBefore)
			}
			inj := &midCollectionFault{f: f, op: tc.op, after: tc.after, fails: tc.fails}
			f.dev.SetFaultInjector(inj)

			_, _, err = f.CollectBackgroundOnce()
			if tc.wantErr != (err != nil) || (err != nil && !errors.Is(err, nand.ErrInjected)) {
				t.Fatalf("collection error = %v, want injected failure: %v", err, tc.wantErr)
			}
			if inj.fails != 0 {
				t.Fatalf("%d armed faults never fired", inj.fails)
			}
			if !inj.sawCollection {
				t.Fatal("injector never consulted mid-collection")
			}
			if inj.victimIndexed {
				t.Error("victim was in the index while being collected")
			}
			if f.collecting != -1 {
				t.Errorf("block %d still marked as being collected", f.collecting)
			}
			wantValid := validBefore - tc.migrated
			if tc.migrated < 0 {
				wantValid = 0
			}
			if got := f.dev.ValidCount(victim); got != wantValid {
				t.Errorf("victim holds %d valid pages, want %d", got, wantValid)
			}
			if got := f.idx.contains(victim); got != tc.indexed {
				t.Errorf("victim indexed = %v, want %v", got, tc.indexed)
			} else if got && f.idx.valid(victim) != wantValid {
				t.Errorf("index holds victim at %d valid pages, device says %d", f.idx.valid(victim), wantValid)
			}
			if f.inFreePool[victim] != tc.pooled {
				t.Errorf("victim pooled = %v, want %v", f.inFreePool[victim], tc.pooled)
			}
			if f.dev.Retired(victim) != tc.retired {
				t.Errorf("victim retired = %v, want %v", f.dev.Retired(victim), tc.retired)
			}
			f.dev.SetFaultInjector(nil)
			if err := f.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			checkIndexAgainstReference(t, f)
		})
	}
}

// fullScanFreeBlock is takeFreeBlock's selection as it was before the
// erase-count floor: the whole pool scanned, the first least-erased
// non-retired block wins. It returns the position in the pool, -1 when
// every pooled block is retired.
func fullScanFreeBlock(dev *nand.Array, pool []int) int {
	best := -1
	for i, b := range pool {
		if dev.Retired(b) {
			continue
		}
		if best < 0 || dev.EraseCount(b) < dev.EraseCount(pool[best]) {
			best = i
		}
	}
	return best
}

// drainAgainstFullScan empties the free pool through takeFreeBlock and
// checks every pick against the full scan run on a shadow copy of the pool
// (same swap-with-last removal), then re-pools the blocks in their
// original order.
func drainAgainstFullScan(t *testing.T, f *FTL) {
	t.Helper()
	saved := append([]int(nil), f.freeBlocks...)
	shadow := append([]int(nil), f.freeBlocks...)
	for {
		want := fullScanFreeBlock(f.dev, shadow)
		got, err := f.takeFreeBlock(true)
		if want < 0 {
			if !errors.Is(err, ErrNoFreeBlocks) {
				t.Fatalf("pool %v has nothing allocatable, takeFreeBlock returned %d, %v", shadow, got, err)
			}
			break
		}
		if err != nil || got != shadow[want] {
			t.Fatalf("takeFreeBlock = %d, %v; full scan of %v (floor %d) picks %d",
				got, err, shadow, f.poolFloor, shadow[want])
		}
		shadow[want] = shadow[len(shadow)-1]
		shadow = shadow[:len(shadow)-1]
		if len(f.freeBlocks) != len(shadow) {
			t.Fatalf("pool holds %d blocks, shadow %d", len(f.freeBlocks), len(shadow))
		}
		for i := range shadow {
			if f.freeBlocks[i] != shadow[i] {
				t.Fatalf("pool order %v diverged from the shadow's %v", f.freeBlocks, shadow)
			}
		}
	}
	for _, b := range f.freeBlocks { // only retired blocks are left
		f.inFreePool[b] = false
	}
	f.freeBlocks = f.freeBlocks[:0]
	for _, b := range saved {
		f.poolBlock(b)
	}
}

// TestTakeFreeBlockMatchesFullScan is the differential test for the
// early-exit free-block pick: over random allocate/collect histories,
// every block it returns is the one the full scan returns, in a pool whose
// floor is whatever the history left behind.
func TestTakeFreeBlockMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		m := newFTLModelOn(t, seed, sweepGeometry(seed))
		for i := 0; i < 300; i++ {
			m.step()
			if i%3 == 0 {
				drainAgainstFullScan(t, m.f)
			}
		}
		m.verify()

		// A retired block sitting in the pool is passed over, wherever it
		// sits and however few erases it has.
		if len(m.f.freeBlocks) == 0 {
			t.Fatalf("seed %d: empty pool", seed)
		}
		least := m.f.freeBlocks[fullScanFreeBlock(m.f.dev, m.f.freeBlocks)]
		if err := m.f.dev.RetireBlock(least); err != nil {
			t.Fatal(err)
		}
		drainAgainstFullScan(t, m.f)
		if blk, err := m.f.takeFreeBlock(true); err == nil && blk == least {
			t.Fatalf("seed %d: retired block %d allocated", seed, least)
		}
	}
}
