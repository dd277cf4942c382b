package nand

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestSetRangeMatchesSet holds the word-wide range writer to the per-page
// setter: every state, over ranges that start and end inside, on and across
// 32-page word boundaries, on a background of random states.
func TestSetRangeMatchesSet(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const pages = 5 * statePagesPerWord
	for trial := 0; trial < 2000; trial++ {
		want := newStateBits(pages)
		for i := int64(0); i < pages; i++ {
			want.set(i, PageState(r.Intn(3)))
		}
		got := append(stateBits(nil), want...)
		start := r.Int63n(pages)
		n := r.Int63n(pages - start + 1)
		st := PageState(r.Intn(3))
		got.setRange(start, n, st)
		for i := start; i < start+n; i++ {
			want.set(i, st)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("setRange(%d, %d, %v) = %x, per-page set gives %x", start, n, st, got, want)
		}
	}
}

// TestProgramRunMatchesProgramPage holds ProgramRun to the per-page path:
// runs of every length from every starting page, over block sizes on and
// off the 32-page state word, with and without the payload plane, must
// leave the array — states, tokens, pointers, counts and Stats —
// reflect.DeepEqual to the same pages programmed one at a time.
func TestProgramRunMatchesProgramPage(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, ppb := range []int{1, 3, 31, 32, 33, 64, 100} {
		geo := Geometry{Channels: 1, ChipsPerChannel: 1, BlocksPerChip: 3, PagesPerBlock: ppb, PageSize: 4096}
		for _, newArr := range []func(Geometry, Timing) (*Array, error){NewArray, NewBareArray} {
			for start := 0; start < ppb; start++ {
				for n := 0; start+n <= ppb; n++ {
					want, _ := newArr(geo, DefaultTimingMLC())
					got, _ := newArr(geo, DefaultTimingMLC())
					blk := r.Intn(geo.TotalBlocks())
					toks := make([]uint64, n)
					for i := range toks {
						toks[i] = r.Uint64()
					}
					for _, a := range []*Array{want, got} {
						for p := 0; p < start; p++ {
							if _, err := a.ProgramPage(PageAddr{Block: blk, Page: p}, 1); err != nil {
								t.Fatal(err)
							}
						}
					}
					var wantD, gotD int64
					for i, tok := range toks {
						d, err := want.ProgramPage(PageAddr{Block: blk, Page: start + i}, tok)
						if err != nil {
							t.Fatal(err)
						}
						wantD += int64(d)
					}
					d, err := got.ProgramRun(PageAddr{Block: blk, Page: start}, toks)
					if err != nil {
						t.Fatalf("ppb %d: ProgramRun(%d, %d pages): %v", ppb, start, n, err)
					}
					gotD = int64(d)
					if gotD != wantD || !reflect.DeepEqual(got, want) {
						t.Fatalf("ppb %d payloads %v: ProgramRun of %d pages from page %d differs from ProgramPage (time %d vs %d)",
							ppb, got.PayloadTracking(), n, start, gotD, wantD)
					}
				}
			}
		}
	}
}

func TestProgramRunRejects(t *testing.T) {
	a := newTestArray(t)
	ppb := a.Geometry().PagesPerBlock
	run := make([]uint64, 2)
	if _, err := a.ProgramRun(PageAddr{Block: 0, Page: 0}, run); err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		addr PageAddr
		n    int
		want error
	}{
		"bad block":         {PageAddr{Block: -1}, 1, ErrBadAddress},
		"past block end":    {PageAddr{Block: 1, Page: ppb - 1}, 2, ErrBadAddress},
		"not the next page": {PageAddr{Block: 0, Page: 3}, 1, ErrOutOfOrderProgram},
		"rewrite":           {PageAddr{Block: 0, Page: 0}, 1, ErrOutOfOrderProgram},
	}
	for name, c := range cases {
		before := a.Stats()
		if _, err := a.ProgramRun(c.addr, make([]uint64, c.n)); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
		if a.Stats() != before {
			t.Errorf("%s: a rejected run changed Stats", name)
		}
	}
	if err := a.RetireBlock(2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ProgramRun(PageAddr{Block: 2}, run); !errors.Is(err, ErrWornOut) {
		t.Errorf("run on a retired block: err = %v, want ErrWornOut", err)
	}
	a.SetFaultInjector(failEverything{op: OpRead})
	if a.FaultInjector() == nil {
		t.Fatal("FaultInjector() is nil with one installed")
	}
	if _, err := a.ProgramRun(PageAddr{Block: 3}, run); err == nil {
		t.Error("ProgramRun ran with a fault injector installed")
	}
	if d, err := a.ProgramRun(PageAddr{Block: 3, Page: 5}, nil); d != 0 || err != nil {
		t.Errorf("empty run = %v, %v; want a no-op", d, err)
	}
}
