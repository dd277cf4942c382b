package ftl

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"jitgc/internal/nand"
)

// fillCase is one point of the fill oracle's sweep: a small device, what
// the host did to it before the fill, and how far the fill goes.
type fillCase struct {
	cfg    Config
	before []int64 // LPNs written before the fill, in order
	sip    []int64 // SIP list installed before the fill
	n      int64
}

// pagesPerBlockChoices mixes block sizes below, at, across and between
// multiples of the 32 page states a state word holds.
var pagesPerBlockChoices = []int{1, 3, 8, 31, 32, 33, 40, 64, 100}

// genFillCase draws a fillCase from seed. The fill length is one of 0, 1,
// one page short of, at and one past a block boundary, the full user
// capacity, or uniform in between, and never beyond the user capacity.
func genFillCase(seed int64) fillCase {
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
	if r.Intn(4) == 0 {
		cfg.Fault = nand.FaultConfig{Seed: seed, ReadRate: 0.002, ProgramRate: 0.02, EraseRate: 0.002}
	}
	user := UserPagesFor(cfg.Geometry.TotalPages(), cfg.OPRatio)
	c := fillCase{cfg: cfg}
	switch r.Intn(3) {
	case 0: // a fresh device
	case 1:
		c.before = make([]int64, r.Int63n(int64(ppb)*3+2))
	default:
		c.before = make([]int64, r.Int63n(2*user))
	}
	for i := range c.before {
		c.before[i] = r.Int63n(user)
	}
	if r.Intn(3) == 0 {
		c.sip = make([]int64, r.Intn(int(user)))
		for i := range c.sip {
			c.sip[i] = r.Int63n(user)
		}
	}
	b := int64(ppb) * (1 + r.Int63n(3))
	c.n = min(user, []int64{0, 1, b - 1, b, b + 1, user, r.Int63n(user + 1)}[r.Intn(7)])
	return c
}

// prepare builds the case's device and replays what happened before the
// fill. Write errors are left in place: the replay is deterministic, so the
// two devices the oracle compares end up alike either way.
func (c fillCase) prepare(t *testing.T) *FTL {
	t.Helper()
	f, err := New(c.cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", c.cfg.Geometry, err)
	}
	for _, lpn := range c.before {
		_, _, _ = f.Write(lpn)
	}
	f.UpdateSIP(true, c.sip, nil)
	return f
}

// TestQuickFillMatchesWrites is Fill's oracle: over small geometries
// (pages per block on and off the 32-page state word), OP ratios, integrity
// on and off, the fault model on, fresh and randomly pre-written devices
// with and without a SIP list, and fill lengths around block boundaries up
// to the full user capacity, Fill(n) must leave the FTL — NAND array, fault
// model and victim index included — reflect.DeepEqual to n Write calls, and
// consistent.
func TestQuickFillMatchesWrites(t *testing.T) {
	count := 300
	if testing.Short() {
		count = 60
	}
	prop := func(seed int64) bool {
		c := genFillCase(seed)
		want := c.prepare(t)
		var wantErr error
		for lpn := int64(0); lpn < c.n; lpn++ {
			if _, _, wantErr = want.Write(lpn); wantErr != nil {
				break
			}
		}
		got := c.prepare(t)
		gotErr := got.Fill(c.n)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("seed %d: Fill error %v, Write loop error %v", seed, gotErr, wantErr)
			return false
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d (ppb %d, n %d, %d writes before, fault %v): Fill state differs from %d Writes",
				seed, c.cfg.Geometry.PagesPerBlock, c.n, len(c.before), c.cfg.Fault.Enabled(), c.n)
			return false
		}
		if err := got.CheckConsistency(); err != nil {
			t.Errorf("seed %d: after Fill: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

func TestFillRejectsOutOfRange(t *testing.T) {
	f := newSmall(t)
	for _, n := range []int64{-1, f.UserPages() + 1} {
		if err := f.Fill(n); !errors.Is(err, ErrBadLPN) {
			t.Errorf("Fill(%d) = %v, want ErrBadLPN", n, err)
		}
	}
	if f.Stats().HostPrograms != 0 || f.MappedPages() != 0 {
		t.Errorf("a rejected Fill wrote: %+v, %d mapped", f.Stats(), f.MappedPages())
	}
}

// TestFillAllocationIsPerCall holds Fill to O(1) allocation: filling one
// block and filling a hundred allocate the same number of objects and bytes.
func TestFillAllocationIsPerCall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(blocks int) (objects, bytes uint64) {
		f, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		n := int64(blocks * f.cfg.Geometry.PagesPerBlock)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = f.Fill(n)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if f.MappedPages() != n {
			t.Fatalf("Fill(%d) mapped %d pages", n, f.MappedPages())
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	oneObj, oneBytes := measure(1)
	hundredObj, hundredBytes := measure(100)
	if oneObj != hundredObj || oneBytes != hundredBytes {
		t.Errorf("filling 1 block allocates %d objects / %d B, 100 blocks %d / %d B",
			oneObj, oneBytes, hundredObj, hundredBytes)
	}
}
