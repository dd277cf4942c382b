package ftl

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"jitgc/internal/nand"
)

// neverFail is a fault injector that never fires. Installing it changes no
// outcome, only the path GC takes: with an injector installed a collection
// migrates its victim page by page instead of by copyback runs.
type neverFail struct{}

func (neverFail) ShouldFail(nand.Op, nand.PageAddr) bool { return false }

// TestQuickCopybackMatchesPerPageMigration is the differential sweep of the
// two migration paths. Over small geometries (pages per block on and off the
// 32-page state word), OP ratios, every selector, wear leveling on and off
// and integrity on and off, two FTLs take the same random writes, TRIMs, SIP
// changes and background, foreground and targeted reclaims, optionally after
// a Fill; one of them has a never-firing fault injector installed, which
// sends its collections down the per-page migratePage path. They must agree
// on every result and on FTL Stats after every step, and end with equal
// L2P/P2L, NAND states, tokens and Stats, SIP counters and victim-index
// answers — in fact reflect.DeepEqual once the injector is removed — and a
// clean CheckConsistency.
func TestQuickCopybackMatchesPerPageMigration(t *testing.T) {
	count, steps := 150, 300
	if testing.Short() {
		count = 40
	}
	var migrated, erased int64
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ppb := pagesPerBlockChoices[r.Intn(len(pagesPerBlockChoices))]
		cfg := Config{
			Geometry: nand.Geometry{
				Channels: 1 + r.Intn(2), ChipsPerChannel: 1, BlocksPerChip: 12 + r.Intn(20),
				PagesPerBlock: ppb, PageSize: 4096,
			},
			OPRatio:          []float64{0.5, 0.7, 0.9}[r.Intn(3)],
			WearThreshold:    int64(r.Intn(2) * 4),
			DisableIntegrity: r.Intn(3) == 0,
		}
		sel := Selector(r.Intn(2))
		runs, err := New(cfg)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		perPage, _ := New(cfg)
		withSelector(t, runs, sel)
		withSelector(t, perPage, sel)
		perPage.Device().SetFaultInjector(neverFail{})
		user := runs.UserPages()

		// both applies op to the two FTLs; they must agree on its outcome.
		// Running out of victims is an outcome; any other error is a bug.
		both := func(step int, op string, do func(f *FTL) (any, error)) {
			t.Helper()
			resA, errA := do(runs)
			resB, errB := do(perPage)
			if (errA == nil) != (errB == nil) || (errA != nil && !errors.Is(errA, ErrNoFreeBlocks)) {
				t.Fatalf("seed %d step %d: %s: copyback path %v, per-page path %v", seed, step, op, errA, errB)
			}
			if resA != resB {
				t.Fatalf("seed %d step %d: %s: copyback path gives %+v, per-page path %+v", seed, step, op, resA, resB)
			}
			if runs.Stats() != perPage.Stats() {
				t.Fatalf("seed %d step %d: %s: stats diverged\n copyback %+v\n per-page %+v", seed, step, op, runs.Stats(), perPage.Stats())
			}
		}
		if r.Intn(2) == 0 {
			n := r.Int63n(user + 1)
			both(-1, "Fill", func(f *FTL) (any, error) { return nil, f.Fill(n) })
		}
		for i := 0; i < steps; i++ {
			lpn := r.Int63n(user)
			switch r.Intn(10) {
			case 0, 1, 2, 3:
				both(i, "Write", func(f *FTL) (any, error) {
					s, g, err := f.Write(lpn)
					return [2]any{s, g}, err
				})
			case 4:
				both(i, "Trim", func(f *FTL) (any, error) { return nil, f.Trim(lpn) })
			case 5:
				reset := r.Intn(4) == 0
				add, drop := make([]int64, r.Intn(16)), make([]int64, r.Intn(8))
				for j := range add {
					add[j] = r.Int63n(user)
				}
				for j := range drop {
					drop[j] = r.Int63n(user)
				}
				both(i, "UpdateSIP", func(f *FTL) (any, error) { f.UpdateSIP(reset, add, drop); return nil, nil })
			case 6, 7:
				both(i, "CollectBackgroundOnce", func(f *FTL) (any, error) {
					freed, d, err := f.CollectBackgroundOnce()
					return [2]any{freed, d}, err
				})
			case 8:
				both(i, "foreground collectOnce", func(f *FTL) (any, error) { return f.collectOnce(true) })
			default:
				target := r.Int63n(int64(3 * ppb))
				both(i, "ReclaimBackground", func(f *FTL) (any, error) { return f.ReclaimBackground(target, 0) })
			}
		}

		if !reflect.DeepEqual(runs.l2p, perPage.l2p) || !reflect.DeepEqual(runs.p2l, perPage.p2l) {
			t.Fatalf("seed %d: L2P/P2L differ between the migration paths", seed)
		}
		da, db := runs.Device(), perPage.Device()
		if da.Stats() != db.Stats() {
			t.Fatalf("seed %d: NAND stats differ\n copyback %+v\n per-page %+v", seed, da.Stats(), db.Stats())
		}
		for ppn := int64(0); ppn < cfg.Geometry.TotalPages(); ppn++ {
			addr := nand.AddrOfPPN(ppn, ppb)
			tokA, stA, _ := da.PeekPage(addr)
			tokB, stB, _ := db.PeekPage(addr)
			if tokA != tokB || stA != stB {
				t.Fatalf("seed %d: page %+v is %v/%#x by copyback, %v/%#x per page", seed, addr, stA, tokA, stB, tokB)
			}
		}
		if !slices.Equal(runs.sipPerBlock, perPage.sipPerBlock) {
			t.Fatalf("seed %d: SIP counters differ\n copyback %v\n per-page %v", seed, runs.sipPerBlock, perPage.sipPerBlock)
		}
		if runs.idx.size != perPage.idx.size {
			t.Fatalf("seed %d: %d indexed blocks by copyback, %d per page", seed, runs.idx.size, perPage.idx.size)
		}
		if runs.idx.size > 0 {
			ga, gb := runs.idx.greedyVictim(), perPage.idx.greedyVictim()
			answers := [][2]int{
				{ga, gb},
				{runs.sipGreedyVictim(ga, sipMaxFraction, sipSlackPages), perPage.sipGreedyVictim(gb, sipMaxFraction, sipSlackPages)},
			}
			for k, a := range answers {
				if a[0] != a[1] {
					t.Fatalf("seed %d: selector %d picks block %d by copyback, %d per page", seed, k, a[0], a[1])
				}
			}
		}
		for _, f := range []*FTL{runs, perPage} {
			if err := f.CheckConsistency(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		db.SetFaultInjector(nil)
		if !reflect.DeepEqual(runs, perPage) {
			t.Fatalf("seed %d: the two FTLs differ once the injector is removed", seed)
		}
		migrated += runs.Stats().GCMigrations
		erased += runs.Stats().Erases
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
	if migrated == 0 || erased == 0 {
		t.Errorf("the sweep migrated %d pages and erased %d blocks: it compared no collection", migrated, erased)
	}
}

// TestCollectZeroAlloc pins collection's allocation budget at zero. The
// first collection a device ever runs — after a Fill and some TRIMs, with
// no GC before it — must not allocate, so no scratch buffer grows on first
// use; and in steady state, under every selector with a SIP list installed,
// CollectBackgroundOnce allocates nothing while it migrates pages.
func TestCollectZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sel := range []Selector{Greedy, SIPGreedy} {
		cfg := quickGeometry()
		first, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		withSelector(t, first, sel)
		if err := first.Fill(first.UserPages()); err != nil {
			t.Fatal(err)
		}
		for lpn := int64(0); lpn < first.UserPages(); lpn += 3 {
			if err := first.Trim(lpn); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = first.CollectBackgroundOnce()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("selector %d: first collection: %v", sel, err)
		}
		if first.Stats().GCMigrations == 0 {
			t.Fatalf("selector %d: the first collection migrated nothing", sel)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("selector %d: the first collection allocates %d times, want 0", sel, n)
		}

		f := withSelector(t, steadyFTL(t, cfg), sel)
		f.UpdateSIP(true, []int64{1, 5, 9, 13, 17, 21}, nil)
		lpn := int64(0)
		migrations := f.Stats().GCMigrations
		if avg := testing.AllocsPerRun(200, func() {
			for i := 0; i < 6; i++ {
				if _, _, err := f.Write(lpn); err != nil {
					t.Fatalf("Write(%d): %v", lpn, err)
				}
				lpn = (lpn + 7) % f.UserPages()
			}
			if _, _, err := f.CollectBackgroundOnce(); err != nil {
				t.Fatalf("CollectBackgroundOnce: %v", err)
			}
		}); avg != 0 {
			t.Errorf("selector %d: steady-state collection allocates %.2f times per op, want 0", sel, avg)
		}
		if f.Stats().GCMigrations == migrations {
			t.Errorf("selector %d: no collection migrated a page: the test measured nothing", sel)
		}
	}
}
