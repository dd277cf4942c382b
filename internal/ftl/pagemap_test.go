package ftl

import (
	"errors"
	"math"
	"testing"
)

// TestUserPagesForMatchesFloatAtSmallScales pins that the integer capacity
// computation reproduces the historical float64 result everywhere the
// goldens live, so reports stay byte-identical.
func TestUserPagesForMatchesFloatAtSmallScales(t *testing.T) {
	cases := []struct {
		total int64
		ratio float64
	}{
		{65536, 0.07}, // default geometry, paper OP
		{256, 0.25},   // quick-test geometry
		{32768, 0.07}, // half-size geometry
		{1024, 0.07},
		{16 << 20, 0.07}, // 64 GiB preset
		{16 << 20, 0.28},
	}
	for _, c := range cases {
		want := int64(float64(c.total) / (1 + c.ratio))
		if got := UserPagesFor(c.total, c.ratio); got != want {
			t.Errorf("UserPagesFor(%d, %v) = %d, float computation gives %d", c.total, c.ratio, got, want)
		}
	}
}

// TestUserPagesForLargeCountsExact is the regression for the float64
// round-trip bug: past 2^53 pages float64 cannot represent the count, so
// the old computation drifted from the true quotient. The integer version
// must stay exact.
func TestUserPagesForLargeCountsExact(t *testing.T) {
	// 2^53 + 1 is the first integer float64 cannot represent.
	const big = int64(1<<53) + 1
	// ratio 0 isolates the representation error: the correct answer is the
	// input itself, while float64(big) already rounds it away.
	if got := UserPagesFor(big, 0); got != big {
		t.Errorf("UserPagesFor(%d, 0) = %d, want identity", big, got)
	}
	// At 7% OP the exact quotient is verifiable in closed form:
	// q = big·10^9 / (1.07·10^9), checked against big.Int-free arithmetic
	// via the division identity q·d ≤ n < (q+1)·d with n = big·10^9.
	const denom = int64(1_070_000_000)
	got := UserPagesFor(big, 0.07)
	// Verify the division identity using 128-bit comparison via float-free
	// math: n = big·1e9 overflows int64, so compare in two halves.
	hiN, loN := mul128(uint64(big), 1_000_000_000)
	hiQ, loQ := mul128(uint64(got), uint64(denom))
	if cmp128(hiQ, loQ, hiN, loN) > 0 {
		t.Errorf("UserPagesFor(%d, 0.07) = %d: q·d exceeds n", big, got)
	}
	hiQ1, loQ1 := mul128(uint64(got+1), uint64(denom))
	if cmp128(hiQ1, loQ1, hiN, loN) <= 0 {
		t.Errorf("UserPagesFor(%d, 0.07) = %d: (q+1)·d does not exceed n (quotient too small)", big, got)
	}
	// And the float64 path must actually disagree here, or this test
	// guards nothing.
	floatQ := int64(float64(big) / 1.07)
	if floatQ == got {
		t.Logf("note: float64 path agrees at this scale (%d); identity case above still guards", big)
	}
}

func mul128(a, b uint64) (hi, lo uint64) {
	aHi, aLo := a>>32, a&0xFFFFFFFF
	bHi, bLo := b>>32, b&0xFFFFFFFF
	t := aLo * bLo
	lo = t & 0xFFFFFFFF
	c := t >> 32
	t = aHi*bLo + c
	mid1 := t & 0xFFFFFFFF
	mid2 := t >> 32
	t = aLo*bHi + mid1
	lo |= t << 32
	hi = aHi*bHi + mid2 + t>>32
	return hi, lo
}

func cmp128(aHi, aLo, bHi, bLo uint64) int {
	switch {
	case aHi != bHi:
		if aHi < bHi {
			return -1
		}
		return 1
	case aLo != bLo:
		if aLo < bLo {
			return -1
		}
		return 1
	}
	return 0
}

// TestPageMapEntries drives the 4-byte entries through the accessor layer
// up to the largest page number a valid geometry holds.
func TestPageMapEntries(t *testing.T) {
	m := newPageMap(64)
	for i := int64(0); i < 64; i++ {
		if m.at(i) != unmapped {
			t.Fatalf("fresh entry %d = %d", i, m.at(i))
		}
	}
	const top = math.MaxInt32 - 2 // the last page of a (2^31−2)-page device
	m.set(7, top)
	if got := m.at(7); got != top {
		t.Fatalf("at(7) = %d, want %d", got, top)
	}
	m.set(7, unmapped)
	if m.at(7) != unmapped {
		t.Fatal("unmapped round-trip failed")
	}
	m.setSeq(60, top-3, 4)
	for i := int64(0); i < 4; i++ {
		if got := m.at(60 + i); got != top-3+i {
			t.Fatalf("setSeq: at(%d) = %d, want %d", 60+i, got, top-3+i)
		}
	}
	if m.bytes() != 64*4 {
		t.Fatalf("bytes %d, want %d", m.bytes(), 64*4)
	}
}

// TestValidateRejectsPageCountBeyondInt32 checks the bound the page maps
// rest on without building a device: a geometry of math.MaxInt32 − 1 pages
// passes, one of math.MaxInt32 pages or more is ErrTooManyPages.
func TestValidateRejectsPageCountBeyondInt32(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry.Channels, cfg.Geometry.ChipsPerChannel, cfg.Geometry.PagesPerBlock = 1, 1, 2
	for _, tc := range []struct {
		blocks, pagesPerBlock int
		ok                    bool
	}{
		{(math.MaxInt32 - 1) / 2, 2, true},
		{math.MaxInt32, 1, false},
		{1 << 30, 2, false},
		{1 << 24, 1 << 10, false},
	} {
		cfg.Geometry.BlocksPerChip, cfg.Geometry.PagesPerBlock = tc.blocks, tc.pagesPerBlock
		err := cfg.Validate()
		if tc.ok != (err == nil) || (!tc.ok && !errors.Is(err, ErrTooManyPages)) {
			t.Errorf("%d pages: Validate() = %v, want ok=%v", cfg.Geometry.TotalPages(), err, tc.ok)
		}
	}
}

// TestDisableIntegritySameDynamics pins that an integrity-free FTL follows
// the identical write/GC trajectory as the default one — only the payload
// verification is gone, not the behaviour the statistics measure.
func TestDisableIntegritySameDynamics(t *testing.T) {
	run := func(disable bool) Stats {
		cfg := quickGeometry()
		cfg.DisableIntegrity = disable
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4000; i++ {
			lpn := int64(i*37) % f.UserPages()
			if _, _, err := f.Write(lpn); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.CheckConsistency(); err != nil {
			t.Fatalf("disable=%v: %v", disable, err)
		}
		return f.Stats()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("stats diverge:\n integrity: %+v\n bare:      %+v", a, b)
	}
}

// TestUserPagesForDegenerateInputs pins the clamping behaviour: empty and
// negative devices expose nothing, and a negative OP ratio (nonsensical,
// but representable) clamps to zero rather than inflating capacity.
func TestUserPagesForDegenerateInputs(t *testing.T) {
	if got := UserPagesFor(0, 0.07); got != 0 {
		t.Errorf("UserPagesFor(0) = %d, want 0", got)
	}
	if got := UserPagesFor(-5, 0.07); got != 0 {
		t.Errorf("UserPagesFor(-5) = %d, want 0", got)
	}
	if got := UserPagesFor(1000, -0.5); got != 1000 {
		t.Errorf("UserPagesFor(1000, -0.5) = %d, want 1000 (ratio clamps to 0)", got)
	}
}
