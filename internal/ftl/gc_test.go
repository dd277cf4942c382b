package ftl

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func mkCands(valids ...int) []BlockInfo {
	cands := make([]BlockInfo, len(valids))
	for i, v := range valids {
		cands[i] = BlockInfo{Index: i, Valid: v, PagesPerBlock: 16}
	}
	return cands
}

func TestGreedySelectsMinValid(t *testing.T) {
	cands := mkCands(5, 2, 9, 2)
	if got := (Greedy{}).Select(cands); got != 1 {
		t.Errorf("greedy = %d, want 1 (first min-valid)", got)
	}
	if (Greedy{}).Name() != "greedy" {
		t.Error("name")
	}
}

func TestCostBenefitPrefersOldSparseBlocks(t *testing.T) {
	cands := []BlockInfo{
		{Index: 0, Valid: 8, Age: time.Second, PagesPerBlock: 16},
		{Index: 1, Valid: 8, Age: time.Hour, PagesPerBlock: 16}, // much older
	}
	if got := (CostBenefit{}).Select(cands); got != 1 {
		t.Errorf("cost-benefit = %d, want the older block", got)
	}
	// A fully invalid block always wins.
	cands = append(cands, BlockInfo{Index: 2, Valid: 0, PagesPerBlock: 16})
	if got := (CostBenefit{}).Select(cands); got != 2 {
		t.Errorf("cost-benefit = %d, want the empty block", got)
	}
	if (CostBenefit{}).Name() != "cost-benefit" {
		t.Error("name")
	}
}

func TestSIPGreedyFiltersWithinSlack(t *testing.T) {
	sel := SIPGreedy{MaxSIPFraction: 0, SlackPages: 4}
	cands := []BlockInfo{
		{Index: 0, Valid: 4, SIPValid: 2, PagesPerBlock: 16}, // greedy pick, has SIP pages
		{Index: 1, Valid: 6, SIPValid: 0, PagesPerBlock: 16}, // 2 extra migrations: within slack
	}
	if got := sel.Select(cands); got != 1 {
		t.Errorf("SIP-greedy = %d, want the clean block within slack", got)
	}
	// Beyond slack the greedy choice must stand.
	cands[1].Valid = 10
	if got := sel.Select(cands); got != 0 {
		t.Errorf("SIP-greedy = %d, want greedy when slack exceeded", got)
	}
	// With everything SIP-tainted it falls back to greedy.
	cands[1].SIPValid = 5
	if got := sel.Select(cands); got != 0 {
		t.Errorf("SIP-greedy = %d, want greedy fallback", got)
	}
	if sel.Name() != "sip-greedy" {
		t.Error("name")
	}
}

func TestSIPGreedyFractionThreshold(t *testing.T) {
	sel := SIPGreedy{MaxSIPFraction: 0.5, SlackPages: 8}
	cands := []BlockInfo{
		{Index: 0, Valid: 4, SIPValid: 1, PagesPerBlock: 16}, // 25% ≤ 50%: admissible
		{Index: 1, Valid: 6, SIPValid: 0, PagesPerBlock: 16},
	}
	if got := sel.Select(cands); got != 0 {
		t.Errorf("tolerated-SIP block rejected: got %d", got)
	}
}

func TestSelectorsDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20) + 1
		cands := make([]BlockInfo, n)
		for i := range cands {
			cands[i] = BlockInfo{
				Index:         i,
				Valid:         r.Intn(16),
				SIPValid:      r.Intn(4),
				Age:           time.Duration(r.Intn(1000)) * time.Millisecond,
				PagesPerBlock: 16,
			}
			if cands[i].SIPValid > cands[i].Valid {
				cands[i].SIPValid = cands[i].Valid
			}
		}
		for _, sel := range []VictimSelector{Greedy{}, CostBenefit{}, SIPGreedy{MaxSIPFraction: 0.1}} {
			a, b := sel.Select(cands), sel.Select(cands)
			if a != b || a < 0 || a >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetSIPListCountsPerBlock(t *testing.T) {
	f := newSmall(t)
	for lpn := int64(0); lpn < 32; lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			t.Fatal(err)
		}
	}
	f.UpdateSIP(true, []int64{0, 1, 2, -5, f.UserPages() + 3}, nil) // out-of-range ignored
	if got := f.SIPListSize(); got != 3 {
		t.Errorf("SIP list size = %d, want 3", got)
	}
	// lpns 0..2 were written back-to-back into the same active block.
	blk0 := int(f.MappedPPN(0)) / 16
	if got := f.sipPerBlock[blk0]; got != 3 {
		t.Errorf("sipPerBlock[%d] = %d, want 3", blk0, got)
	}
	// Replacing the list resets the counters.
	f.UpdateSIP(true, []int64{20}, nil)
	if got := f.sipPerBlock[blk0]; got != 0 {
		t.Errorf("sipPerBlock[%d] after replace = %d, want 0", blk0, got)
	}
	blk20 := int(f.MappedPPN(20)) / 16
	if got := f.sipPerBlock[blk20]; got != 1 {
		t.Errorf("sipPerBlock[%d] = %d, want 1", blk20, got)
	}
	// A change without reset touches the pages it names and no others; an
	// addition already present and a removal already absent count nothing.
	f.UpdateSIP(false, []int64{0, 20}, []int64{1})
	if f.SIPListSize() != 2 || f.sipPerBlock[blk0] != 1 || f.sipPerBlock[blk20] != 1 {
		t.Errorf("after +{0,20} −{1}: size %d, blocks %d and %d; want 2, 1 and 1",
			f.SIPListSize(), f.sipPerBlock[blk0], f.sipPerBlock[blk20])
	}
	f.UpdateSIP(false, nil, []int64{20, 20})
	if f.SIPListSize() != 1 || f.sipPerBlock[blk20] != 0 {
		t.Errorf("after −{20,20}: size %d, block %d; want 1 and 0", f.SIPListSize(), f.sipPerBlock[blk20])
	}
}

func TestSIPCountersFollowOverwrites(t *testing.T) {
	f := newSmall(t)
	for lpn := int64(0); lpn < 32; lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			t.Fatal(err)
		}
	}
	f.UpdateSIP(true, []int64{5}, nil)
	if f.sipPerBlock[int(f.MappedPPN(5))/16] != 1 {
		t.Fatal("setup: SIP page not counted in its block")
	}
	// Overwriting lpn 5 invalidates the old copy (SIP count moves to the
	// block holding the new copy).
	oldBlock := int(f.MappedPPN(5)) / 16
	if _, _, err := f.Write(5); err != nil {
		t.Fatal(err)
	}
	if f.sipPerBlock[oldBlock] != 0 {
		t.Errorf("old block still counts SIP page: %d", f.sipPerBlock[oldBlock])
	}
	newBlock := int(f.MappedPPN(5)) / 16
	if f.sipPerBlock[newBlock] != 1 {
		t.Errorf("new block %d SIP count = %d, want 1", newBlock, f.sipPerBlock[newBlock])
	}
}

func TestWastedMigrationAccounting(t *testing.T) {
	f := newSmall(t)
	fillUser(t, f)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatal(err)
		}
	}
	// Mark a broad SIP list, then force collections with plain greedy so
	// SIP pages do get migrated and counted as wasted.
	var sip []int64
	for lpn := int64(0); lpn < f.UserPages(); lpn += 2 {
		sip = append(sip, lpn)
	}
	f.UpdateSIP(true, sip, nil)
	if _, err := f.ReclaimBackground(64, 0); err != nil {
		t.Fatal(err)
	}
	if f.Stats().GCMigrations > 0 && f.Stats().WastedMigrations == 0 {
		t.Error("no wasted migrations counted despite broad SIP list")
	}
}

func TestFilteredSelectionsMetric(t *testing.T) {
	f := newSmall(t)
	f.SetSelector(SIPGreedy{MaxSIPFraction: 0, SlackPages: 16})
	fillUser(t, f)
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatal(err)
		}
	}
	// A sparse SIP list taints some blocks while leaving clean
	// alternatives for the filter to prefer.
	var sip []int64
	for lpn := int64(0); lpn < f.UserPages(); lpn += 16 {
		sip = append(sip, lpn)
	}
	f.UpdateSIP(true, sip, nil)
	// Reclaim until the pool is dry so selection has to dig into blocks
	// with moderate valid counts, where SIP taint matters.
	if _, err := f.ReclaimBackground(10000, 0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.VictimSelections == 0 {
		t.Fatal("no victim selections")
	}
	if st.FilteredSelections == 0 {
		t.Error("SIP filtering never rejected the greedy choice despite dense SIP list")
	}
	if st.FilteredSelections > st.VictimSelections {
		t.Error("filtered > total selections")
	}
}

func TestWearLevelingRecyclesColdBlocks(t *testing.T) {
	// Hammer a small hot range so a few blocks cycle while others hold
	// cold data, and compare the wear spread with leveling on and off.
	spread := func(threshold int64) int64 {
		cfg := smallConfig()
		cfg.WearThreshold = threshold
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fillUser(t, f)
		r := rand.New(rand.NewSource(17))
		for i := 0; i < int(6*f.UserPages()); i++ {
			if _, _, err := f.Write(r.Int63n(32)); err != nil {
				t.Fatal(err)
			}
		}
		minE, maxE, _ := f.Device().WearStats()
		return maxE - minE
	}
	with, without := spread(3), spread(0)
	if with >= without {
		t.Errorf("wear spread with leveling (%d) not better than without (%d)", with, without)
	}
}

func TestSetSelectorNilKeepsCurrent(t *testing.T) {
	f := newSmall(t)
	f.SetSelector(nil)
	if f.cfg.Selector == nil {
		t.Error("nil selector installed")
	}
}
