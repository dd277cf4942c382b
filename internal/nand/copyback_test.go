package nand

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// copybackPPBs mixes block sizes below, at, across and between multiples of
// the 32 page states a state word holds; at 48 every odd block starts in
// the middle of a word.
var copybackPPBs = []int{1, 3, 31, 32, 33, 48, 64, 100}

// scatteredArray builds a four-block array whose blocks are written to a
// random depth with random tokens and then lose a random half of their
// pages to invalidation. The same seed builds the same array.
func scatteredArray(t *testing.T, newArr func(Geometry, Timing) (*Array, error), ppb int, seed int64) *Array {
	t.Helper()
	geo := Geometry{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 4, PagesPerBlock: ppb, PageSize: 4096}
	a, err := newArr(geo, DefaultTimingMLC())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for b := 0; b < geo.TotalBlocks(); b++ {
		wp := r.Intn(ppb + 1)
		for p := 0; p < wp; p++ {
			if _, err := a.ProgramPage(PageAddr{Block: b, Page: p}, r.Uint64()); err != nil {
				t.Fatal(err)
			}
		}
		for p := 0; p < wp; p++ {
			if r.Intn(2) == 0 {
				if err := a.InvalidatePage(PageAddr{Block: b, Page: p}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return a
}

// validByScan lists a block's valid pages one PageStateAt at a time.
func validByScan(t *testing.T, a *Array, block int) []int {
	t.Helper()
	var pages []int
	for p := 0; p < a.Geometry().PagesPerBlock; p++ {
		st, err := a.PageStateAt(PageAddr{Block: block, Page: p})
		if err != nil {
			t.Fatal(err)
		}
		if st == PageValid {
			pages = append(pages, p)
		}
	}
	return pages
}

// TestValidPagesMatchesPageStateAt holds the word-wise enumeration to a
// per-page scan on every block of scattered arrays, blocks that start and
// end inside a state word included. It appends after what buf holds, and
// with room in buf it does not allocate.
func TestValidPagesMatchesPageStateAt(t *testing.T) {
	for _, ppb := range copybackPPBs {
		for seed := int64(0); seed < 20; seed++ {
			a := scatteredArray(t, NewArray, ppb, seed)
			for b := 0; b < a.Geometry().TotalBlocks(); b++ {
				want := append([]int{-7}, validByScan(t, a, b)...)
				if got := a.ValidPages(b, []int{-7}); !slices.Equal(got, want) {
					t.Fatalf("ppb %d seed %d block %d: ValidPages = %v, scan says %v", ppb, seed, b, got, want)
				}
				if len(want)-1 != a.ValidCount(b) {
					t.Fatalf("ppb %d seed %d block %d: %d valid pages listed, ValidCount %d", ppb, seed, b, len(want)-1, a.ValidCount(b))
				}
				buf := make([]int, 0, ppb)
				if avg := testing.AllocsPerRun(5, func() { buf = a.ValidPages(b, buf[:0]) }); avg != 0 {
					t.Fatalf("ppb %d: ValidPages into a buffer with room allocates %.1f times", ppb, avg)
				}
			}
		}
	}
}

// TestCopybackMatchesPerPage holds Copyback to the per-page path it
// replaces: a random ascending subset of a block's valid pages, moved to
// the next free pages of a random destination block (the source block
// itself included), with and without the payload plane, must leave the
// array — states, tokens, valid counts, write pointers and Stats —
// reflect.DeepEqual to one ReadPage, ProgramPage and InvalidatePage per
// page, in the same device time.
func TestCopybackMatchesPerPage(t *testing.T) {
	moved := 0
	for _, ppb := range copybackPPBs {
		for _, newArr := range []func(Geometry, Timing) (*Array, error){NewArray, NewBareArray} {
			for seed := int64(0); seed < 60; seed++ {
				want := scatteredArray(t, newArr, ppb, seed)
				got := scatteredArray(t, newArr, ppb, seed)
				r := rand.New(rand.NewSource(^seed))
				src, dst := r.Intn(4), r.Intn(4)
				var pages []int
				for _, p := range validByScan(t, want, src) {
					if r.Intn(3) > 0 {
						pages = append(pages, p)
					}
				}
				start := want.WritePtr(dst)
				pages = pages[:min(len(pages), ppb-start)]

				var wantD int64
				for i, p := range pages {
					from, to := PageAddr{Block: src, Page: p}, PageAddr{Block: dst, Page: start + i}
					tok, rd, err := want.ReadPage(from)
					if err != nil {
						t.Fatal(err)
					}
					pd, err := want.ProgramPage(to, tok)
					if err != nil {
						t.Fatal(err)
					}
					if err := want.InvalidatePage(from); err != nil {
						t.Fatal(err)
					}
					wantD += int64(rd + pd)
				}
				d, err := got.Copyback(src, pages, PageAddr{Block: dst, Page: start})
				if err != nil {
					t.Fatalf("ppb %d seed %d: Copyback(%d, %v, block %d page %d): %v", ppb, seed, src, pages, dst, start, err)
				}
				if int64(d) != wantD || !reflect.DeepEqual(got, want) {
					t.Fatalf("ppb %d payloads %v seed %d: Copyback of %d pages from block %d to block %d differs from the per-page path (time %d vs %d)",
						ppb, got.PayloadTracking(), seed, len(pages), src, dst, d, wantD)
				}
				moved += len(pages)
			}
		}
	}
	if moved == 0 {
		t.Error("no page was ever moved: the sweep compared nothing")
	}
}

// TestCopybackRejects covers every refusal: a bad source block, a bad or
// overlong destination run, a retired destination, a destination away from
// its write pointer, a source page that is not valid or out of order, and
// an installed fault injector. Each must leave the array bit-identical.
func TestCopybackRejects(t *testing.T) {
	const ppb = 48
	// Block 0 holds pages 0–9 with page 3 invalid, block 1 is written to two
	// pages short of its end, block 2 is retired and block 3 is erased.
	build := func() *Array {
		a, err := NewArray(Geometry{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 4, PagesPerBlock: ppb, PageSize: 4096}, DefaultTimingMLC())
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct{ block, pages int }{{0, 10}, {1, ppb - 2}} {
			if _, err := a.ProgramRun(PageAddr{Block: run.block}, make([]uint64, run.pages)); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.InvalidatePage(PageAddr{Block: 0, Page: 3}); err != nil {
			t.Fatal(err)
		}
		if err := a.RetireBlock(2); err != nil {
			t.Fatal(err)
		}
		return a
	}
	fresh := PageAddr{Block: 3}
	cases := map[string]struct {
		src   int
		pages []int
		dst   PageAddr
		want  error // nil: any error
	}{
		"negative source block":   {-1, []int{0}, fresh, ErrBadAddress},
		"source block past end":   {4, []int{0}, fresh, ErrBadAddress},
		"bad destination block":   {0, []int{0}, PageAddr{Block: 4}, ErrBadAddress},
		"bad destination page":    {0, []int{0}, PageAddr{Block: 3, Page: ppb}, ErrBadAddress},
		"run past the block end":  {0, []int{0, 1, 2}, PageAddr{Block: 1, Page: ppb - 2}, ErrBadAddress},
		"retired destination":     {0, []int{0}, PageAddr{Block: 2}, ErrWornOut},
		"past the write pointer":  {0, []int{0}, PageAddr{Block: 3, Page: 1}, ErrOutOfOrderProgram},
		"onto a written page":     {0, []int{0}, PageAddr{Block: 1, Page: 0}, ErrOutOfOrderProgram},
		"negative source page":    {0, []int{-1}, fresh, ErrBadAddress},
		"source page past end":    {0, []int{ppb}, fresh, ErrBadAddress},
		"descending source pages": {0, []int{2, 1}, fresh, ErrBadAddress},
		"repeated source page":    {0, []int{1, 1}, fresh, ErrBadAddress},
		"invalid source page":     {0, []int{2, 3}, fresh, nil},
		"free source page":        {0, []int{9, 10}, fresh, nil},
		"free source block":       {3, []int{0}, PageAddr{Block: 1, Page: ppb - 2}, nil},
	}
	for name, c := range cases {
		a := build()
		d, err := a.Copyback(c.src, c.pages, c.dst)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: Copyback = %v, %v; want %v", name, d, err, c.want)
		}
		if !reflect.DeepEqual(a, build()) {
			t.Errorf("%s: a refused Copyback changed the array", name)
		}
	}

	a, ref := build(), build()
	a.SetFaultInjector(failEverything{op: OpErase})
	ref.SetFaultInjector(failEverything{op: OpErase})
	if _, err := a.Copyback(0, []int{0, 1}, fresh); err == nil {
		t.Error("Copyback ran with a fault injector installed")
	}
	if !reflect.DeepEqual(a, ref) {
		t.Error("Copyback refused for the fault injector but changed the array")
	}

	a = build()
	if d, err := a.Copyback(0, nil, fresh); d != 0 || err != nil || !reflect.DeepEqual(a, build()) {
		t.Errorf("empty copyback = %v, %v; want a no-op", d, err)
	}
}
