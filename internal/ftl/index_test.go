package ftl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

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
		cands = append(cands, BlockInfo{
			Index:         b,
			Valid:         f.dev.ValidCount(b),
			SIPValid:      f.sipPerBlock[b],
			PagesPerBlock: ppb,
		})
	}
	return cands
}

// checkIndexAgainstReference asserts that every index-served victim choice
// — greedy, and SIP-greedy at the production configuration and two others
// — equals the corresponding full-scan selection, bit for bit, including
// the deterministic tie-breaks the goldens depend on.
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
	greedy := cands[greedySelect(cands)].Index
	if got := f.idx.greedyVictim(); got != greedy {
		t.Fatalf("index greedy victim %d, reference scan picks %d", got, greedy)
	}
	for _, s := range []struct {
		frac  float64
		slack int
	}{
		{sipMaxFraction, sipSlackPages}, // what SIPGreedy runs
		{0.1, 4},
		{0, 8}, // zero tolerance, wide slack: filters hardest
	} {
		want := cands[sipGreedySelect(cands, s.frac, s.slack)].Index
		if got := f.sipGreedyVictim(greedy, s.frac, s.slack); got != want {
			t.Fatalf("index sip-greedy (frac=%v slack=%d) victim %d, reference scan picks %d",
				s.frac, s.slack, got, want)
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
// random interleavings of writes, TRIMs, reads, background collections
// and SIP updates, with the index's victim choice compared against the
// from-scratch reference scan, and the whole tree audited, after every
// single step.
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
		burst := maxReadRetries + 1
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

// withSelector installs sel on f and returns f.
func withSelector(tb testing.TB, f *FTL, sel Selector) *FTL {
	tb.Helper()
	if err := f.SetSelector(sel); err != nil {
		tb.Fatal(err)
	}
	return f
}

// taintedSteadyFTL builds a steady-state FTL whose greedy victim holds
// valid pages and is tainted: random overwrites spread the candidates over
// many valid counts, background collections take every fully-invalid
// block, and taintGreedy lists every other LPN.
// SIP-greedy selections on it walk the frontier instead of returning early.
func taintedSteadyFTL(t *testing.T, sel Selector) *FTL {
	t.Helper()
	f := withSelector(t, steadyFTL(t, quickGeometry()), sel)
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < f.UserPages(); i++ {
		if _, _, err := f.Write(rng.Int63n(f.UserPages())); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
	}
	for f.idx.size > 0 && f.idx.valid(f.idx.greedyVictim()) == 0 {
		if _, _, err := f.CollectBackgroundOnce(); err != nil {
			t.Fatalf("CollectBackgroundOnce: %v", err)
		}
	}
	taintGreedy(t, f)
	return f
}

// taintGreedy lists every other LPN and fails unless that puts more than
// sipMaxFraction of the greedy victim's valid pages on the SIP list.
func taintGreedy(tb testing.TB, f *FTL) {
	tb.Helper()
	var every []int64
	for lpn := int64(0); lpn < f.UserPages(); lpn += 2 {
		every = append(every, lpn)
	}
	f.UpdateSIP(true, every, nil)
	g := f.idx.greedyVictim()
	if g < 0 || float64(f.sipPerBlock[g]) <= sipMaxFraction*float64(f.idx.valid(g)) {
		tb.Fatalf("greedy victim %d (valid %d, SIP %d) is not tainted", g, f.idx.valid(g), f.sipPerBlock[g])
	}
}

// TestSelectVictimZeroAlloc enforces the claim for every Selector kind,
// foreground and background: a victim selection in steady state performs
// zero heap allocations, walks included. The greedy victim holds valid SIP
// pages, so SIP-greedy walks its frontier and filters (FilteredSelections
// grows).
func TestSelectVictimZeroAlloc(t *testing.T) {
	selectors := []struct {
		name string
		sel  Selector
	}{
		{"greedy", Greedy},
		{"sip-greedy", SIPGreedy},
	}
	for _, tc := range selectors {
		t.Run(tc.name, func(t *testing.T) {
			f := taintedSteadyFTL(t, tc.sel)
			before := f.Stats().FilteredSelections
			for _, fg := range []bool{false, true} {
				if avg := testing.AllocsPerRun(200, func() {
					if _, ok := f.pickVictim(fg); !ok {
						t.Fatal("no victim available in steady state")
					}
				}); avg != 0 {
					t.Errorf("pickVictim(foreground=%v) allocates %.2f times per op, want 0", fg, avg)
				}
			}
			if filtered := f.Stats().FilteredSelections > before; filtered != (tc.sel == SIPGreedy) {
				t.Errorf("FilteredSelections grew: %v, want %v", filtered, tc.sel == SIPGreedy)
			}
		})
	}
}

// TestEachVisitsMembersUpToLimit pins the walk SIP-greedy runs: for every
// limit in [0, PagesPerBlock], on random index states from the differential
// sweep's geometries, each visits exactly the members holding at most limit
// valid pages, each once, in ascending block order, with the valid count
// the leaf holds — and allocates nothing.
func TestEachVisitsMembersUpToLimit(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m := newFTLModelOn(t, seed, sweepGeometry(seed))
		ix := m.f.idx
		for step := 0; step < 150; step++ {
			m.step()
			if step%10 != 9 {
				continue
			}
			for limit := 0; limit <= ix.ppb; limit++ {
				var want, got []int
				for b := 0; b < m.f.cfg.Geometry.TotalBlocks(); b++ {
					if ix.contains(b) && ix.valid(b) <= limit {
						want = append(want, b)
					}
				}
				ix.each(limit, func(b, valid int) {
					if valid != ix.valid(b) {
						t.Fatalf("seed %d limit %d: block %d visited with valid %d, leaf says %d",
							seed, limit, b, valid, ix.valid(b))
					}
					got = append(got, b)
				})
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d limit %d: each visits %v, want %v", seed, step, limit, got, want)
				}
				visits := 0
				if avg := testing.AllocsPerRun(5, func() {
					ix.each(limit, func(int, int) { visits++ })
				}); avg != 0 {
					t.Fatalf("each(%d) allocates %.2f times per walk, want 0", limit, avg)
				}
				if visits != 6*len(want) { // AllocsPerRun adds a warm-up call
					t.Fatalf("each(%d) made %d visits over 6 walks, want %d", limit, visits, 6*len(want))
				}
			}
		}
	}
}

// TestWritePathZeroAlloc enforces the satellite claim on the host write
// path: FTL.Write performs zero heap allocations per op, both during the
// first sequential fill of a fresh device (the preconditioning every run
// starts with: program plus free-block picks) and in steady state —
// foreground GC, erases and victim selections included.
func TestWritePathZeroAlloc(t *testing.T) {
	cfg := quickGeometry()
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withSelector(t, fresh, SIPGreedy)
	for _, tc := range []struct {
		name   string
		f      *FTL
		writes int   // AllocsPerRun calls its function writes+1 times
		stride int64 // LPN step between writes
	}{
		{"fill", fresh, int(fresh.UserPages()) - 1, 1},
		{"steady", withSelector(t, steadyFTL(t, cfg), SIPGreedy), 400, 7},
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

// TestCustomSelectorRejected: the victim index answers only the two
// Selector kinds, so SetSelector refuses a value past them with
// ErrUnknownSelector and leaves the installed kind in place. Foreground
// selection ignores the selector: a stalled host write always takes the
// greedy victim straight from the index root.
func TestCustomSelectorRejected(t *testing.T) {
	f := withSelector(t, steadyFTL(t, quickGeometry()), SIPGreedy)
	if err := f.SetSelector(SIPGreedy + 1); !errors.Is(err, ErrUnknownSelector) {
		t.Errorf("SetSelector(SIPGreedy+1): err = %v, want ErrUnknownSelector", err)
	}
	if got := f.sel; got != SIPGreedy {
		t.Errorf("refused SetSelector replaced the selector with %d", got)
	}

	f.UpdateSIP(true, []int64{1, 5, 9, 13}, nil)
	before := f.Stats().VictimSelections
	if got, ok := f.pickVictim(true); !ok || got != f.idx.greedyVictim() {
		t.Errorf("foreground pick %d (ok=%v), want index greedy %d", got, ok, f.idx.greedyVictim())
	}
	if f.Stats().VictimSelections != before+1 {
		t.Error("foreground selection not counted")
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
	ix := newVictimIndex(8, 4)
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
// state with a random overwrite pass, so candidate blocks spread over many
// valid counts.
func benchSteadyFTL(b testing.TB, blocks int, sel Selector) *FTL {
	b.Helper()
	f, err := New(benchGeometry(blocks))
	if err != nil {
		b.Fatal(err)
	}
	withSelector(b, f, sel)
	for lpn := int64(0); lpn < f.UserPages(); lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			b.Fatalf("precondition write(%d): %v", lpn, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
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
// increasing device sizes, with zero allocations at every size. Greedy reads
// the tournament root, so its ns/op must stay flat as the block count grows
// 256×, up to the 16 GiB and 64 GiB presets' block counts. A SIP-greedy selection with no SIP list installed returns the greedy
// choice; with every other LPN listed ("sipgreedy-tainted") the greedy
// victim is tainted and the selection walks the frontier of blocks within
// sipSlackPages of it, as JIT-GC runs do, so its cost follows the frontier,
// not the device.
func BenchmarkVictimSelect(b *testing.B) {
	for _, tc := range []struct {
		name    string
		sel     Selector
		tainted bool
	}{
		{"greedy", Greedy, false},
		{"sipgreedy", SIPGreedy, false},
		{"sipgreedy-tainted", SIPGreedy, true},
	} {
		for _, blocks := range []int{512, 2048, 8192, 32768, 131072} {
			b.Run(fmt.Sprintf("%s/blocks=%d", tc.name, blocks), func(b *testing.B) {
				f := benchSteadyFTL(b, blocks, tc.sel)
				if tc.tainted {
					taintGreedy(b, f)
				}
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
				d = &steadyDevice{f: benchSteadyFTL(b, blocks, Greedy), rng: rand.New(rand.NewSource(2))}
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
