package ftl

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestQuickSIPChangeMatchesReplaceInstall holds the incremental SIP update
// to the install it replaced. Two FTLs take the same random writes, TRIMs and
// background collections under the SIP-aware selector; one is sent random
// {add, drop} changes (repeats, pages already in or out of the set and
// out-of-range LPNs included), its twin the whole resulting set after a
// reset, every time. They must agree on SIP membership, on every block's SIP
// counter and on every victim, and both must audit clean.
func TestQuickSIPChangeMatchesReplaceInstall(t *testing.T) {
	cfg := quickGeometry()
	steps, maxCount := 400, 24
	if testing.Short() {
		steps, maxCount = 150, 8
	}
	var filtered int64 // victim choices the SIP set changed, over all seeds
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		delta := withSelector(t, steadyFTL(t, cfg), SIPGreedy)
		twin := withSelector(t, steadyFTL(t, cfg), SIPGreedy)
		both := func(op string, do func(f *FTL) error) {
			t.Helper()
			for _, f := range []*FTL{delta, twin} {
				if err := do(f); err != nil && !errors.Is(err, ErrNoFreeBlocks) {
					t.Fatalf("seed %d: %s: %v", seed, op, err)
				}
			}
		}
		set := map[int64]bool{} // the SIP set both should hold
		user := delta.UserPages()
		for i := 0; i < steps; i++ {
			lpn := rng.Int63n(user)
			switch rng.Intn(8) {
			case 0, 1, 2:
				both("Write", func(f *FTL) error { _, _, err := f.Write(lpn); return err })
			case 3:
				both("Trim", func(f *FTL) error { return f.Trim(lpn) })
			case 4, 5:
				va, oka := delta.pickVictim(false)
				vb, okb := twin.pickVictim(false)
				if va != vb || oka != okb {
					t.Fatalf("seed %d step %d: victim %d (%v), twin picks %d (%v)", seed, i, va, oka, vb, okb)
				}
				both("CollectBackgroundOnce", func(f *FTL) error { _, _, err := f.CollectBackgroundOnce(); return err })
			default:
				add, drop := make([]int64, rng.Intn(12)), make([]int64, rng.Intn(12))
				for j := range add {
					add[j] = rng.Int63n(user+8) - 4
				}
				for j := range drop {
					drop[j] = rng.Int63n(user+8) - 4
				}
				delta.UpdateSIP(false, add, drop)
				for _, l := range add {
					if l >= 0 && l < user {
						set[l] = true
					}
				}
				for _, l := range drop {
					delete(set, l)
				}
				full := make([]int64, 0, len(set))
				for l := range set {
					full = append(full, l)
				}
				twin.UpdateSIP(true, full, nil)
			}
			for l := int64(0); l < user; l++ {
				if delta.onSIPList(l) != set[l] || twin.onSIPList(l) != set[l] {
					t.Fatalf("seed %d step %d: lpn %d in the set %v; by changes %v, by install %v",
						seed, i, l, set[l], delta.onSIPList(l), twin.onSIPList(l))
				}
			}
			if delta.SIPListSize() != len(set) || !slices.Equal(delta.sipPerBlock, twin.sipPerBlock) {
				t.Fatalf("seed %d step %d: %d pages for a set of %d, per block\n got %v\nwant %v",
					seed, i, delta.SIPListSize(), len(set), delta.sipPerBlock, twin.sipPerBlock)
			}
			if delta.Stats() != twin.Stats() {
				t.Fatalf("seed %d step %d: stats diverged\n got %+v\nwant %+v", seed, i, delta.Stats(), twin.Stats())
			}
		}
		both("CheckConsistency", (*FTL).CheckConsistency)
		filtered += delta.Stats().FilteredSelections
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
	if filtered == 0 {
		t.Error("no victim choice depended on the SIP set: the sweep compared nothing")
	}
}
