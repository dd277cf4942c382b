package ftl

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// BlockInfo describes a GC victim candidate for the full-scan reference
// selectors.
type BlockInfo struct {
	// Index is the flat block index.
	Index int
	// Valid is the number of valid pages that would need migration.
	Valid int
	// SIPValid is how many of those valid pages are on the current SIP
	// list, i.e. will shortly be invalidated by a page-cache flush.
	SIPValid int
	// PagesPerBlock is the block capacity, for utilization math.
	PagesPerBlock int
}

// Utilization returns the valid-page fraction u of the block.
func (b BlockInfo) Utilization() float64 {
	if b.PagesPerBlock == 0 {
		return 0
	}
	return float64(b.Valid) / float64(b.PagesPerBlock)
}

func TestBlockInfoUtilization(t *testing.T) {
	if u := (BlockInfo{Valid: 4, PagesPerBlock: 8}).Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
	if u := (BlockInfo{Valid: 4}).Utilization(); u != 0 {
		t.Errorf("zero-ppb utilization = %v, want 0", u)
	}
}

// greedySelect and sipGreedySelect are the full-scan
// reference selectors: each returns the position in cands (never empty) of
// the victim its Selector kind defines over every eligible block. The
// victim index must reproduce their choices bit for bit
// (checkIndexAgainstReference).

// greedySelect takes the fewest valid pages, ties to the lower block index.
func greedySelect(cands []BlockInfo) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Valid < cands[best].Valid ||
			(cands[i].Valid == cands[best].Valid && cands[i].Index < cands[best].Index) {
			best = i
		}
	}
	return best
}

// sipGreedySelect keeps the greedy choice unless more than maxFraction of
// its valid pages are on the SIP list; then it takes, among candidates
// within slack extra valid pages of it, the fewest SIP pages, then the
// fewest valid pages, then the lower block index.
func sipGreedySelect(cands []BlockInfo, maxFraction float64, slack int) int {
	greedy := greedySelect(cands)
	g := cands[greedy]
	if g.Valid == 0 || float64(g.SIPValid)/float64(g.Valid) <= maxFraction {
		return greedy // not tainted enough to pay anything for
	}
	best := greedy
	for i, c := range cands {
		if c.Valid > g.Valid+slack {
			continue
		}
		b := cands[best]
		if c.SIPValid < b.SIPValid ||
			(c.SIPValid == b.SIPValid && c.Valid < b.Valid) ||
			(c.SIPValid == b.SIPValid && c.Valid == b.Valid && c.Index < b.Index) {
			best = i
		}
	}
	return best
}

func mkCands(valids ...int) []BlockInfo {
	cands := make([]BlockInfo, len(valids))
	for i, v := range valids {
		cands[i] = BlockInfo{Index: i, Valid: v, PagesPerBlock: 16}
	}
	return cands
}

func TestGreedySelectsMinValid(t *testing.T) {
	cands := mkCands(5, 2, 9, 2)
	if got := greedySelect(cands); got != 1 {
		t.Errorf("greedy = %d, want 1 (first min-valid)", got)
	}
}

func TestSIPGreedyFiltersWithinSlack(t *testing.T) {
	sel := func(cands []BlockInfo) int { return sipGreedySelect(cands, 0, 4) }
	cands := []BlockInfo{
		{Index: 0, Valid: 4, SIPValid: 2, PagesPerBlock: 16}, // greedy pick, has SIP pages
		{Index: 1, Valid: 6, SIPValid: 0, PagesPerBlock: 16}, // 2 extra migrations: within slack
	}
	if got := sel(cands); got != 1 {
		t.Errorf("SIP-greedy = %d, want the clean block within slack", got)
	}
	// Beyond slack the greedy choice must stand.
	cands[1].Valid = 10
	if got := sel(cands); got != 0 {
		t.Errorf("SIP-greedy = %d, want greedy when slack exceeded", got)
	}
	// With everything SIP-tainted it falls back to greedy.
	cands[1].SIPValid = 5
	if got := sel(cands); got != 0 {
		t.Errorf("SIP-greedy = %d, want greedy fallback", got)
	}
}

func TestSIPGreedyFractionThreshold(t *testing.T) {
	cands := []BlockInfo{
		{Index: 0, Valid: 4, SIPValid: 1, PagesPerBlock: 16}, // 25% ≤ 50%: admissible
		{Index: 1, Valid: 6, SIPValid: 0, PagesPerBlock: 16},
	}
	if got := sipGreedySelect(cands, 0.5, 8); got != 0 {
		t.Errorf("tolerated-SIP block rejected: got %d", got)
	}
}

// TestSIPGreedyFrontierEdge pins the upper edge of the frontier walk on a
// real index. The greedy victim holds 2 valid pages, all listed; the only
// clean candidate holds exactly 2+sipSlackPages, so SIP-greedy must take it
// over a tainted one a page cheaper. Once that candidate is tainted too, the
// cheaper one wins, and a clean block one page past the slack stays out.
func TestSIPGreedyFrontierEdge(t *testing.T) {
	cfg := quickGeometry()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withSelector(t, f, SIPGreedy)
	if err := f.Fill(f.UserPages()); err != nil {
		t.Fatal(err)
	}
	ppb := cfg.Geometry.PagesPerBlock
	lpns := map[int][]int64{} // block → the LPNs it holds, ascending
	for lpn := int64(0); lpn < f.UserPages(); lpn++ {
		b := int(f.MappedPPN(lpn)) / ppb
		lpns[b] = append(lpns[b], lpn)
	}
	var full []int
	for b, l := range lpns {
		if len(l) == ppb {
			full = append(full, b)
		}
	}
	slices.Sort(full)
	if len(full) < 4 {
		t.Fatalf("fill left %d full blocks, need 4", len(full))
	}
	const gv = 2
	greedy, inside, edge, past := full[0], full[1], full[2], full[3]
	for b, keep := range map[int]int{
		greedy: gv,
		inside: gv + sipSlackPages - 1,
		edge:   gv + sipSlackPages,
		past:   gv + sipSlackPages + 1,
	} {
		for _, lpn := range lpns[b][keep:] {
			if err := f.Trim(lpn); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.UpdateSIP(true, append(slices.Clone(lpns[greedy][:gv]), lpns[inside][0]), nil)
	for _, step := range []struct {
		taint int64 // LPN listed before the selection, -1 for none
		want  int
	}{
		{-1, edge},
		{lpns[edge][0], inside},
	} {
		if step.taint >= 0 {
			f.UpdateSIP(false, []int64{step.taint}, nil)
		}
		checkIndexAgainstReference(t, f)
		if g := f.idx.greedyVictim(); g != greedy {
			t.Fatalf("greedy victim %d, want block %d", g, greedy)
		}
		if got, _ := f.pickVictim(false); got != step.want {
			t.Errorf("SIP-greedy picks block %d (valid %d, SIP %d), want block %d (valid %d, SIP %d)",
				got, f.idx.valid(got), f.sipPerBlock[got],
				step.want, f.idx.valid(step.want), f.sipPerBlock[step.want])
		}
	}
	if n := f.Stats().FilteredSelections; n != 2 {
		t.Errorf("FilteredSelections = %d, want 2", n)
	}
}

func TestSelectorsDeterministicProperty(t *testing.T) {
	selectors := []func([]BlockInfo) int{
		greedySelect,
		func(c []BlockInfo) int { return sipGreedySelect(c, sipMaxFraction, sipSlackPages) },
		func(c []BlockInfo) int { return sipGreedySelect(c, 0.1, 8) },
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20) + 1
		cands := make([]BlockInfo, n)
		for i := range cands {
			cands[i] = BlockInfo{
				Index:         i,
				Valid:         r.Intn(16),
				SIPValid:      r.Intn(4),
				PagesPerBlock: 16,
			}
			if cands[i].SIPValid > cands[i].Valid {
				cands[i].SIPValid = cands[i].Valid
			}
		}
		for _, sel := range selectors {
			a, b := sel(cands), sel(cands)
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
	if err := f.SetSelector(SIPGreedy); err != nil {
		t.Fatal(err)
	}
	fillUser(t, f)
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatal(err)
		}
	}
	// A SIP list of every third page taints blocks past the 30% threshold
	// while leaving cleaner alternatives for the filter to prefer.
	var sip []int64
	for lpn := int64(0); lpn < f.UserPages(); lpn += 3 {
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
