package nand

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// scanWear is the full scan WearStats used to be: the reference the
// incrementally kept aggregates are checked against. Retired blocks count
// at the erase count they retired with.
func scanWear(a *Array) (minErase, maxErase, total int64) {
	minErase = a.eraseCount[0]
	for _, c := range a.eraseCount {
		if c < minErase {
			minErase = c
		}
		if c > maxErase {
			maxErase = c
		}
		total += c
	}
	return minErase, maxErase, total
}

// TestWearStatsMatchesScan drives random erase / RetireBlock sequences, with
// and without an endurance limit, and compares the O(1) WearStats with a
// full scan after every step.
func TestWearStatsMatchesScan(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		geo := Geometry{Channels: 1 + rng.Intn(3), ChipsPerChannel: 1, BlocksPerChip: 1 + rng.Intn(9), PagesPerBlock: 4, PageSize: 4096}
		a, err := NewBareArray(geo, DefaultTimingMLC())
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			a.SetEnduranceLimit(int64(1 + rng.Intn(12)))
		}
		// A hot subset keeps the minimum pinned while the maximum runs well
		// past the histogram's first allocation.
		hot := 1 + rng.Intn(geo.TotalBlocks())
		for step := 0; step < 600; step++ {
			b := rng.Intn(geo.TotalBlocks())
			switch r := rng.Intn(100); {
			case r < 3:
				if err := a.RetireBlock(b); err != nil {
					t.Fatal(err)
				}
			case r < 70:
				b %= hot
				fallthrough
			default:
				if _, err := a.EraseBlock(b); err != nil && !errors.Is(err, ErrWornOut) {
					t.Fatal(err)
				}
			}
			gotMin, gotMax, gotTotal := a.WearStats()
			wantMin, wantMax, wantTotal := scanWear(a)
			if gotMin != wantMin || gotMax != wantMax || gotTotal != wantTotal {
				t.Fatalf("seed %d step %d: WearStats %d/%d/%d, scan says %d/%d/%d",
					seed, step, gotMin, gotMax, gotTotal, wantMin, wantMax, wantTotal)
			}
			if err := a.CheckWear(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWearHistogramGrowsPastInitialCapacity: a block erased more often than
// the histogram's first allocation holds keeps exact statistics.
func TestWearHistogramGrowsPastInitialCapacity(t *testing.T) {
	a := newTestArray(t)
	n := int64(2*wearHistInitCap + 3)
	for i := int64(0); i < n; i++ {
		if _, err := a.EraseBlock(5); err != nil {
			t.Fatal(err)
		}
	}
	if minE, maxE, total := a.WearStats(); minE != 0 || maxE != n || total != n {
		t.Errorf("wear stats = %d/%d/%d, want 0/%d/%d", minE, maxE, total, n, n)
	}
	if err := a.CheckWear(); err != nil {
		t.Error(err)
	}
}

func TestCheckWearViolations(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(a *Array)
		want    string
	}{
		{"minimum drifted", func(a *Array) { a.wearMin++ }, "wear aggregates"},
		{"maximum drifted", func(a *Array) { a.wearHist = append(a.wearHist, 0) }, "wear aggregates"},
		{"total drifted", func(a *Array) { a.wearErases++ }, "wear aggregates"},
		{"histogram bin drifted", func(a *Array) { a.wearHist[1]++ }, "wear histogram"},
		{"count outside histogram", func(a *Array) { a.eraseCount[2] = int64(len(a.wearHist)) }, "outside the wear histogram"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newTestArray(t)
			for _, b := range []int{0, 0, 0, 1, 3, 3} {
				if _, err := a.EraseBlock(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.CheckWear(); err != nil {
				t.Fatalf("fresh array: %v", err)
			}
			tc.corrupt(a)
			err := a.CheckWear()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestEraseFreesUnalignedBlock: with a pages-per-block that is not a
// multiple of the 32 states a word packs, a block's states start and end
// mid-word. Erasing it must free exactly its own pages.
func TestEraseFreesUnalignedBlock(t *testing.T) {
	for _, ppb := range []int{24, 40, 128} {
		geo := Geometry{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 5, PagesPerBlock: ppb, PageSize: 4096}
		for victim := 1; victim <= 3; victim++ {
			a, err := NewBareArray(geo, DefaultTimingMLC())
			if err != nil {
				t.Fatal(err)
			}
			// Alternate valid and invalid pages everywhere so that a freed
			// neighbour state or a surviving victim state cannot hide.
			want := make([]PageState, geo.TotalPages())
			for b := 0; b < geo.TotalBlocks(); b++ {
				for p := 0; p < ppb; p++ {
					addr := PageAddr{Block: b, Page: p}
					if _, err := a.ProgramPage(addr, 0); err != nil {
						t.Fatal(err)
					}
					want[addr.PPN(ppb)] = PageValid
					if (b+p)%2 == 0 {
						if err := a.InvalidatePage(addr); err != nil {
							t.Fatal(err)
						}
						want[addr.PPN(ppb)] = PageInvalid
					}
				}
			}
			if _, err := a.EraseBlock(victim); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < ppb; p++ {
				want[PageAddr{Block: victim, Page: p}.PPN(ppb)] = PageFree
			}
			for ppn, w := range want {
				if got, _ := a.PageStateAt(AddrOfPPN(int64(ppn), ppb)); got != w {
					t.Fatalf("ppb %d, erased block %d: page %v is %v, want %v",
						ppb, victim, AddrOfPPN(int64(ppn), ppb), got, w)
				}
			}
		}
	}
}
