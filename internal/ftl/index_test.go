package ftl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/nand"
)

// referenceCandidates enumerates GC-eligible blocks from scratch — no
// victim index, no free-pool bitmap, exactly the full scan the index
// replaced. The differential tests compare every index-served decision
// against selections over this slice.
func referenceCandidates(f *FTL) []BlockInfo {
	geo := f.cfg.Geometry
	ppb := geo.PagesPerBlock
	free := make(map[int]bool, len(f.freeBlocks))
	for _, b := range f.freeBlocks {
		free[b] = true
	}
	var cands []BlockInfo
	for b := 0; b < geo.TotalBlocks(); b++ {
		if free[b] || b == f.hostActive || b == f.gcActive || f.dev.Retired(b) {
			continue
		}
		if f.dev.WritePtr(b) < ppb {
			continue
		}
		if f.dev.ValidCount(b) >= ppb {
			continue
		}
		age := f.now - f.lastInvalidate[b]
		if age < 0 {
			age = 0
		}
		cands = append(cands, BlockInfo{
			Index:          b,
			Valid:          f.dev.ValidCount(b),
			SIPValid:       f.sipPerBlock[b],
			EraseCount:     f.dev.EraseCount(b),
			LastInvalidate: f.lastInvalidate[b],
			Age:            age,
			PagesPerBlock:  ppb,
		})
	}
	return cands
}

// checkIndexAgainstReference asserts that every index-served victim choice
// — greedy, cost-benefit, and SIP-greedy at two configurations — equals
// the corresponding full-scan selection, bit for bit, including the
// deterministic tie-breaks the goldens depend on.
func checkIndexAgainstReference(t *testing.T, f *FTL) {
	t.Helper()
	cands := referenceCandidates(f)
	if len(cands) != f.idx.size {
		t.Fatalf("index tracks %d candidates, reference scan finds %d", f.idx.size, len(cands))
	}
	if len(cands) == 0 {
		if got := f.idx.greedyVictim(); got != -1 {
			t.Fatalf("empty candidate set but index greedy victim is %d", got)
		}
		return
	}
	greedy := cands[Greedy{}.Select(cands)].Index
	if got := f.idx.greedyVictim(); got != greedy {
		t.Fatalf("index greedy victim %d, reference scan picks %d", got, greedy)
	}
	if want := cands[CostBenefit{}.Select(cands)].Index; f.costBenefitVictim() != want {
		t.Fatalf("index cost-benefit victim %d, reference scan picks %d",
			f.costBenefitVictim(), want)
	}
	for _, s := range []SIPGreedy{
		{MaxSIPFraction: 0.1, SlackPages: 4},
		{MaxSIPFraction: 0}, // default slack, zero tolerance: filters hardest
	} {
		want := cands[s.Select(cands)].Index
		if got := f.sipGreedyVictim(s, greedy); got != want {
			t.Fatalf("index sip-greedy (frac=%v slack=%d) victim %d, reference scan picks %d",
				s.MaxSIPFraction, s.SlackPages, got, want)
		}
	}
}

// sweepGeometry alternates the index sweeps between 32 blocks and a block
// count that is not a power of two.
func sweepGeometry(seed int64) Config {
	if seed&1 != 0 {
		return oddGeometry()
	}
	return quickGeometry()
}

// checkAfterStep is what the index sweeps assert after every operation: the
// index's choices equal the reference scan's, and the full audit — leaf
// keys, every internal tournament node the minimum of its children, the
// root equal to a greedy scan — finds nothing.
func checkAfterStep(t *testing.T, f *FTL) {
	t.Helper()
	checkIndexAgainstReference(t, f)
	if err := f.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
}

// TestQuickVictimIndexMatchesReference is the differential property sweep:
// random interleavings of writes, TRIMs, reads, background collections,
// SIP updates and power cycles, with the index's victim choice compared
// against the from-scratch reference scan, and the whole tree audited,
// after every single step.
func TestQuickVictimIndexMatchesReference(t *testing.T) {
	steps := 250
	maxCount := 12
	if testing.Short() {
		steps = 100
		maxCount = 4
	}
	prop := func(seed int64) bool {
		m := newFTLModelOn(t, seed, sweepGeometry(seed))
		for i := 0; i < steps; i++ {
			m.step()
			checkAfterStep(t, m.f)
		}
		m.verify()
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVictimIndexUnderFaults repeats the differential sweep on a
// recovering FTL with background read/program/erase fault injection:
// retired blocks must leave the index the moment recovery gives up on
// them, and every selection must still match the reference scan.
func TestQuickVictimIndexUnderFaults(t *testing.T) {
	steps := 250
	maxCount := 10
	if testing.Short() {
		steps = 100
		maxCount = 4
	}
	prop := func(seed int64) bool {
		m, _ := newFaultModelFTLOn(t, seed, sweepGeometry(seed))
		burst := m.f.recovery.ReadRetryLimit + 1
		for i := 0; i < steps; i++ {
			if i%60 == 59 {
				m.f.FaultModel().FailNext(nand.OpRead, burst)
			}
			m.step()
			checkAfterStep(t, m.f)
		}
		m.verify()
		if m.f.FaultModel().InjectedTotal() == 0 {
			t.Fatal("fault sweep injected no faults")
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// steadyFTL builds an FTL in GC steady state: the working set written
// twice over, so every selection sees a populated candidate set and every
// further write exercises the full allocate/invalidate/collect cycle.
func steadyFTL(tb testing.TB, cfg Config) *FTL {
	tb.Helper()
	f, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for lpn := int64(0); lpn < f.UserPages(); lpn++ {
			if _, _, err := f.Write(lpn); err != nil {
				tb.Fatalf("precondition write(%d): %v", lpn, err)
			}
		}
	}
	if f.idx.size == 0 {
		tb.Fatal("steady-state FTL has no GC candidates")
	}
	return f
}

// TestSelectVictimZeroAlloc enforces the tentpole claim for every built-in
// selector, foreground and background: a victim selection in steady state
// performs zero heap allocations.
func TestSelectVictimZeroAlloc(t *testing.T) {
	selectors := []struct {
		name string
		sel  VictimSelector
	}{
		{"greedy", Greedy{}},
		{"cost-benefit", CostBenefit{}},
		{"sip-greedy", SIPGreedy{MaxSIPFraction: 0.1, SlackPages: 4}},
	}
	for _, tc := range selectors {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickGeometry()
			cfg.Selector = tc.sel
			f := steadyFTL(t, cfg)
			f.UpdateSIP(true, []int64{1, 5, 9, 13}, nil) // give SIP filtering something to chew
			for _, fg := range []bool{false, true} {
				if avg := testing.AllocsPerRun(200, func() {
					if _, ok := f.pickVictim(fg); !ok {
						t.Fatal("no victim available in steady state")
					}
				}); avg != 0 {
					t.Errorf("pickVictim(foreground=%v) allocates %.2f times per op, want 0", fg, avg)
				}
			}
		})
	}
}

// TestWritePathZeroAlloc enforces the satellite claim on the host write
// path: FTL.Write performs zero heap allocations per op, both during the
// first sequential fill of a fresh device (the preconditioning every run
// starts with: program plus free-block picks) and in steady state —
// foreground GC, erases and victim selections included.
func TestWritePathZeroAlloc(t *testing.T) {
	cfg := quickGeometry()
	cfg.Selector = SIPGreedy{MaxSIPFraction: 0.1, SlackPages: 4}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		f      *FTL
		writes int   // AllocsPerRun calls its function writes+1 times
		stride int64 // LPN step between writes
	}{
		{"fill", fresh, int(fresh.UserPages()) - 1, 1},
		{"steady", steadyFTL(t, cfg), 400, 7},
	} {
		lpn := int64(0)
		if avg := testing.AllocsPerRun(tc.writes, func() {
			if _, _, err := tc.f.Write(lpn); err != nil {
				t.Fatalf("%s: Write(%d): %v", tc.name, lpn, err)
			}
			lpn = (lpn + tc.stride) % tc.f.UserPages()
		}); avg != 0 {
			t.Errorf("%s: Write allocates %.2f times per op, want 0", tc.name, avg)
		}
	}
}

// TestTrimPathZeroAlloc: TRIM is a metadata operation; it must not
// allocate either.
func TestTrimPathZeroAlloc(t *testing.T) {
	f := steadyFTL(t, quickGeometry())
	lpn := int64(0)
	if avg := testing.AllocsPerRun(200, func() {
		if err := f.Trim(lpn); err != nil {
			t.Fatalf("Trim(%d): %v", lpn, err)
		}
		if _, _, err := f.Write(lpn); err != nil { // re-map for the next round
			t.Fatalf("Write(%d): %v", lpn, err)
		}
		lpn = (lpn + 11) % f.UserPages()
	}); avg != 0 {
		t.Errorf("steady-state Trim+Write allocates %.2f times per op, want 0", avg)
	}
}

// indexedFTL returns a steady-state FTL for checker-corruption tests, with
// a passing CheckConsistency to start from.
func indexedFTL(t *testing.T) *FTL {
	t.Helper()
	f := steadyFTL(t, quickGeometry())
	if err := f.CheckConsistency(); err != nil {
		t.Fatalf("steady FTL inconsistent: %v", err)
	}
	return f
}

// anyIndexed returns some block currently in the victim index.
func anyIndexed(t *testing.T, f *FTL) int {
	t.Helper()
	for b := 0; b < f.cfg.Geometry.TotalBlocks(); b++ {
		if f.idx.contains(b) {
			return b
		}
	}
	t.Fatal("no indexed block")
	return -1
}

func TestCheckConsistencyVictimIndexViolations(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, f *FTL)
		want    string
	}{
		{"free pool bitmap desync", func(t *testing.T, f *FTL) {
			f.inFreePool[f.freeBlocks[0]] = false
		}, "inFreePool"},
		{"retired block stays indexed", func(t *testing.T, f *FTL) {
			// Retire behind the index's back: membership goes stale.
			if err := f.dev.RetireBlock(anyIndexed(t, f)); err != nil {
				t.Fatal(err)
			}
		}, "retired block"},
		{"eligible block missing", func(t *testing.T, f *FTL) {
			f.idx.remove(anyIndexed(t, f))
		}, "index membership"},
		{"stale cached valid count", func(t *testing.T, f *FTL) {
			f.idx.tree[f.idx.leafBase+anyIndexed(t, f)] += 1 << 32
		}, "index caches"},
		{"champion corrupted", func(t *testing.T, f *FTL) {
			b := anyIndexed(t, f)
			f.idx.champ[f.idx.valid(b)] = -1
		}, "champion"},
		{"tournament leaf corrupted", func(t *testing.T, f *FTL) {
			// The key's low half names another block.
			f.idx.tree[f.idx.leafBase+anyIndexed(t, f)] ^= 1
		}, "tournament leaf"},
		{"tournament node stale", func(t *testing.T, f *FTL) {
			// A leaf changes without its matches being replayed.
			b := f.idx.greedyVictim()
			f.idx.tree[(f.idx.leafBase+b)/2] = emptyKey
		}, "tournament node"},
		{"size drifted", func(t *testing.T, f *FTL) {
			f.idx.size++
		}, "index size"},
		{"valid sum drifted", func(t *testing.T, f *FTL) {
			f.idx.sumValid++
		}, "valid-page sum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := indexedFTL(t)
			tc.corrupt(t, f)
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

// TestVictimIndexRebuildAfterRestore: a snapshot/restore cycle must leave
// the rebuilt index identical to an incrementally maintained one.
func TestVictimIndexRebuildAfterRestore(t *testing.T) {
	m := newFTLModel(t, 42)
	for i := 0; i < 200; i++ {
		m.step()
	}
	checkIndexAgainstReference(t, m.f)
	if err := m.f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// mostErased picks the candidate with the highest erase count (first wins
// on ties) — a wear-hostile policy no built-in implements, exercising the
// custom-selector fallback that materializes the candidate slice.
type mostErased struct{}

func (mostErased) Name() string { return "most-erased" }

func (mostErased) Select(cands []BlockInfo) int {
	best := 0
	for i, c := range cands {
		if c.EraseCount > cands[best].EraseCount {
			best = i
		}
	}
	return best
}

// outOfRange returns an index past the slice end; selectVictim must fall
// back to greedy rather than crash on a misbehaving selector.
type outOfRange struct{}

func (outOfRange) Name() string { return "out-of-range" }

func (outOfRange) Select(cands []BlockInfo) int { return len(cands) + 5 }

// TestCustomSelectorFallback drives pickVictim's non-built-in path: the
// choice must match the selector applied to a from-scratch candidate scan,
// selection stats must advance, and the reused scratch slice must keep the
// path allocation-free after warm-up.
func TestCustomSelectorFallback(t *testing.T) {
	cfg := quickGeometry()
	cfg.Selector = mostErased{}
	f := steadyFTL(t, cfg)

	cands := referenceCandidates(f)
	want := cands[mostErased{}.Select(cands)].Index
	before := f.Stats().VictimSelections
	got, ok := f.pickVictim(false)
	if !ok || got != want {
		t.Fatalf("custom selector picked %d (ok=%v), reference scan says %d", got, ok, want)
	}
	if f.Stats().VictimSelections != before+1 {
		t.Error("custom-selector selection not counted")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := f.pickVictim(false); !ok {
			t.Fatal("no victim")
		}
	}); avg != 0 {
		t.Errorf("custom-selector pickVictim allocates %.2f times per op after warm-up, want 0", avg)
	}

	// Foreground selection ignores the custom selector: a stalled host
	// write always takes the greedy victim straight from the index root.
	if got, ok := f.pickVictim(true); !ok || got != f.idx.greedyVictim() {
		t.Errorf("foreground pick %d (ok=%v), want index greedy %d", got, ok, f.idx.greedyVictim())
	}

	f.cfg.Selector = outOfRange{}
	greedy := cands[Greedy{}.Select(cands)].Index
	if got, ok := f.pickVictim(false); !ok || got != greedy {
		t.Errorf("out-of-range selector picked %d (ok=%v), want greedy fallback %d", got, ok, greedy)
	}
}

// TestVictimIndexPanics pins the index's defensive checks: the hooks must
// never double-insert, insert a full/overfull block, or remove an absent
// one — each would mean an eligibility-transition bug elsewhere.
func TestVictimIndexPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	ix := newVictimIndex(8, 4, make([]time.Duration, 8))
	ix.insert(3, 2)
	mustPanic("double insert", func() { ix.insert(3, 1) })
	mustPanic("insert with valid == PagesPerBlock", func() { ix.insert(4, 4) })
	mustPanic("insert with negative valid", func() { ix.insert(5, -1) })
	mustPanic("remove of absent block", func() { ix.remove(6) })
}

// benchGeometry builds a cfg with the given total block count, holding
// channel count and block shape fixed so only the number of blocks scales.
func benchGeometry(blocks int) Config {
	cfg := DefaultConfig()
	cfg.Geometry = nand.Geometry{
		Channels:        4,
		ChipsPerChannel: 1,
		BlocksPerChip:   blocks / 4,
		PagesPerBlock:   64,
		PageSize:        4096,
	}
	cfg.WearThreshold = 0 // isolate selection cost from leveling scans
	return cfg
}

// benchSteadyFTL preconditions a device of the given size into GC steady
// state with a skewed overwrite pass, so candidate blocks spread over many
// valid-count buckets.
func benchSteadyFTL(b testing.TB, blocks int, sel VictimSelector) *FTL {
	b.Helper()
	cfg := benchGeometry(blocks)
	cfg.Selector = sel
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for lpn := int64(0); lpn < f.UserPages(); lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			b.Fatalf("precondition write(%d): %v", lpn, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	f.SetNow(time.Second)
	for i := int64(0); i < f.UserPages()/2; i++ {
		if _, _, err := f.Write(rng.Int63n(f.UserPages())); err != nil {
			b.Fatalf("overwrite: %v", err)
		}
	}
	if f.idx.size == 0 {
		b.Fatal("no candidates after preconditioning")
	}
	return f
}

// BenchmarkVictimSelect measures one background victim selection at
// increasing device sizes. The acceptance criterion is scaling, not a
// point value: greedy reads the tournament root in O(1) and cost-benefit
// walks at most PagesPerBlock bucket champions, so ns/op must stay flat
// as the block count grows 16× — the full scan this replaced grew
// linearly. Allocations must be zero at every size.
func BenchmarkVictimSelect(b *testing.B) {
	for _, tc := range []struct {
		name string
		sel  VictimSelector
	}{
		{"greedy", Greedy{}},
		{"costbenefit", CostBenefit{}},
		{"sipgreedy", SIPGreedy{MaxSIPFraction: 0.1, SlackPages: 4}},
	} {
		for _, blocks := range []int{512, 2048, 8192} {
			b.Run(fmt.Sprintf("%s/blocks=%d", tc.name, blocks), func(b *testing.B) {
				f := benchSteadyFTL(b, blocks, tc.sel)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := f.pickVictim(false); !ok {
						b.Fatal("no victim")
					}
				}
			})
		}
	}
}

// scaleBlockCounts are the device sizes the write-path benchmarks run at:
// the 256 MiB default, the 4 GiB preset `single_direct` uses, and the 64 GiB
// preset's block count. As with BenchmarkVictimSelect the criterion is
// scaling: ns/op may grow with cache misses on the page maps, not with any
// per-block scan or full-height tree replay.
var scaleBlockCounts = []int{512, 8192, 131072}

// steadyFTLs keeps one preconditioned device per size for the benchmark
// process: preconditioning 131,072 blocks costs far more than the measured
// writes, and the harness calls each benchmark at least twice. Each device
// carries its own generator, and uniform random overwrites are what it was
// preconditioned with, so every call measures the same stationary regime
// (a call that started a fixed LPN walk over would overwrite exactly the
// pages the previous call had just written).
var steadyFTLs = map[int]*steadyDevice{}

type steadyDevice struct {
	f   *FTL
	rng *rand.Rand
}

// BenchmarkSteadyStateWrite measures the full host write path — allocate,
// program, invalidate, index maintenance, and any foreground GC the
// reserve forces — in steady state. The allocs/op column is the
// zero-allocation claim, enforced in addition by TestWritePathZeroAlloc.
func BenchmarkSteadyStateWrite(b *testing.B) {
	for _, blocks := range scaleBlockCounts {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			d := steadyFTLs[blocks]
			if d == nil {
				d = &steadyDevice{f: benchSteadyFTL(b, blocks, Greedy{}), rng: rand.New(rand.NewSource(2))}
				steadyFTLs[blocks] = d
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := d.f.Write(d.rng.Int63n(d.f.UserPages())); err != nil {
					b.Fatalf("Write: %v", err)
				}
			}
		})
	}
}

// BenchmarkSequentialFill measures one page of a first sequential fill of a
// fresh device — the preconditioning every run starts with, whose cost per
// page is the program plus 1/PagesPerBlock of a free-block pick from a pool
// that still holds almost every block. A device that fills up is replaced
// off the clock.
func BenchmarkSequentialFill(b *testing.B) {
	for _, blocks := range scaleBlockCounts {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			cfg := benchGeometry(blocks)
			var f *FTL
			lpn := int64(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if f == nil || lpn == f.UserPages() {
					b.StopTimer()
					var err error
					if f, err = New(cfg); err != nil {
						b.Fatal(err)
					}
					lpn = 0
					b.StartTimer()
				}
				if _, _, err := f.Write(lpn); err != nil {
					b.Fatalf("Write: %v", err)
				}
				lpn++
			}
		})
	}
}
