package ftl

import (
	"errors"
	"math/rand"
	"testing"
)

func TestTrimInvalidatesMapping(t *testing.T) {
	f := newSmall(t)
	if _, _, err := f.Write(9); err != nil {
		t.Fatal(err)
	}
	if err := f.Trim(9); err != nil {
		t.Fatal(err)
	}
	if f.MappedPPN(9) != -1 {
		t.Error("trimmed page still mapped")
	}
	if f.Stats().Trims != 1 {
		t.Errorf("trims = %d", f.Stats().Trims)
	}
	// Reading a trimmed page behaves like an unwritten page (zeroes).
	d, err := f.Read(9)
	if err != nil || d != f.dev.Timing().Transfer {
		t.Errorf("read after trim = %v, %v", d, err)
	}
}

func TestTrimUnmappedIsNoOp(t *testing.T) {
	f := newSmall(t)
	if err := f.Trim(5); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Trims != 0 {
		t.Error("no-op trim counted")
	}
	if err := f.Trim(-1); !errors.Is(err, ErrBadLPN) {
		t.Errorf("trim -1: %v", err)
	}
	if err := f.Trim(f.UserPages()); !errors.Is(err, ErrBadLPN) {
		t.Errorf("trim beyond capacity: %v", err)
	}
}

func TestTrimMakesGCCheaper(t *testing.T) {
	// Two identical FTLs under identical traffic; one trims half the data
	// before reclaiming. The trimming FTL must migrate fewer pages.
	run := func(trim bool) int64 {
		f := newSmall(t)
		fillUser(t, f)
		r := rand.New(rand.NewSource(51))
		for i := 0; i < 300; i++ {
			if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
				t.Fatal(err)
			}
		}
		if trim {
			for lpn := int64(0); lpn < f.UserPages(); lpn += 2 {
				if err := f.Trim(lpn); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := f.ReclaimBackground(400, 0); err != nil {
			t.Fatal(err)
		}
		return f.Stats().GCMigrations
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("migrations with trim %d not below without %d", with, without)
	}
}

func TestTrimInvariants(t *testing.T) {
	f := newSmall(t)
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 3000; i++ {
		lpn := r.Int63n(f.UserPages())
		if r.Intn(4) == 0 {
			if err := f.Trim(lpn); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, _, err := f.Write(lpn); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkInvariants(t, f)
}
