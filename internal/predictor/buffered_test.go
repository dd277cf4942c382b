package predictor

import (
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/pagecache"
)

func fig4Config() pagecache.Config {
	return pagecache.Config{
		PageSize:      4096,
		CapacityPages: 1 << 17,
		FlusherPeriod: 5 * time.Second,
		Expire:        30 * time.Second,
		FlushRatio:    1.0,
	}
}

func sec(s int) time.Duration { return time.Duration(s) * time.Second }

// TestPaperFig4Sequences replays the paper's Fig. 4 example end to end
// through the page cache and checks all three demand sequences.
func TestPaperFig4Sequences(t *testing.T) {
	cfg := fig4Config()
	cache, err := pagecache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, sip := NewBuffered(cache), sipSet{}
	// "20 MB" units modelled as exactly 5000 pages so comparisons are exact.
	const unit = 5000

	mustWrite := func(at time.Duration, lpn int64, pages int) {
		t.Helper()
		if _, err := cache.Write(at, lpn, pages); err != nil {
			t.Fatal(err)
		}
	}
	checkShape := func(at time.Duration, wantUnits [6]int) {
		t.Helper()
		cache.Flush(at)
		d, change := b.Predict(at)
		sip.apply(t, change)
		if len(d) != 6 {
			t.Fatalf("demand length %d", len(d))
		}
		for i, w := range wantUnits {
			want := int64(w) * unit * 4096
			if d[i] != want {
				t.Errorf("Dbuf(%v)[%d] = %d bytes, want %d (full: %v)", at, i+1, d[i], want, d)
			}
		}
		if len(sip) != cache.DirtyPageCount() {
			t.Errorf("SIP size %d != dirty pages %d", len(sip), cache.DirtyPageCount())
		}
	}

	mustWrite(sec(2), 0, unit)      // A: 1 unit ("20 MB")
	mustWrite(sec(4), 200000, unit) // B
	checkShape(sec(5), [6]int{0, 0, 0, 0, 0, 2})

	mustWrite(sec(7), 400000, unit) // C
	mustWrite(sec(9), 200000, unit) // B′ resets B's age
	checkShape(sec(10), [6]int{0, 0, 0, 0, 1, 2})

	mustWrite(sec(17), 600000, 10*unit) // D: 10 units ("200 MB")
	checkShape(sec(20), [6]int{0, 0, 1, 2, 0, 10})
}

func TestFlushIntervalBoundaries(t *testing.T) {
	wb := WriteBack{Period: 5 * time.Second, Expire: 30 * time.Second}
	cases := []struct {
		u, now time.Duration
		want   int
	}{
		{sec(2), sec(5), 6},   // due 32 → wake 35 → I6 of t=5
		{sec(5), sec(5), 6},   // due 35 → wake 35 → I6
		{sec(2), sec(10), 5},  // due 32 → wake 35 → I5 of t=10
		{sec(2), sec(20), 3},  // due 32 → wake 35 → I3 of t=20
		{sec(17), sec(20), 6}, // due 47 → wake 50 → I6
		{sec(0), sec(35), 1},  // already due → next wake-up
	}
	for _, c := range cases {
		if got := flushInterval(c.u, c.now, wb); got != c.want {
			t.Errorf("flushInterval(u=%v, now=%v) = %d, want %d", c.u, c.now, got, c.want)
		}
	}
}

func TestPressureFlushPredictedIntoD1(t *testing.T) {
	cfg := fig4Config()
	cfg.CapacityPages = 1000
	cfg.FlushRatio = 0.5 // limit 500 pages
	cache, err := pagecache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffered(cache)
	if _, err := cache.Write(sec(1), 0, 800); err != nil { // 300 over the limit
		t.Fatal(err)
	}
	d, _ := b.Predict(sec(5))
	if got := d[0] / 4096; got != 300 {
		t.Errorf("D1 = %d pages, want the 300-page pressure overflow", got)
	}
	// The overflow pages must not be double-counted at their expiry slot.
	if got := d.Total() / 4096; got != 800 {
		t.Errorf("total = %d pages, want 800", got)
	}
}

func TestStrictModePredictsNothingBelowThreshold(t *testing.T) {
	cfg := fig4Config()
	cfg.CapacityPages = 1000
	cfg.FlushRatio = 0.5
	cache, err := pagecache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffered(cache)
	b.Strict = true
	if _, err := cache.Write(sec(1), 0, 100); err != nil { // under the 500 limit
		t.Fatal(err)
	}
	d, change := b.Predict(sec(5))
	if d.Total() != 0 {
		t.Errorf("strict mode predicted %d bytes below τ_flush", d.Total())
	}
	if change.Reset || len(change.Add) != 0 {
		t.Errorf("strict mode below threshold changed the empty SIP set: %+v", change)
	}
	// Above the threshold the whole dirty set is installed; back below it,
	// one reset empties the receiver and then nothing more is sent.
	if _, err := cache.Write(sec(6), 100, 500); err != nil {
		t.Fatal(err)
	}
	if _, change = b.Predict(sec(10)); !change.Reset || len(change.Add) != 600 {
		t.Errorf("crossing τ_flush: reset %v with %d pages, want a reset with all 600", change.Reset, len(change.Add))
	}
	for lpn := int64(100); lpn < 600; lpn++ {
		cache.Drop(lpn)
	}
	if _, change = b.Predict(sec(15)); !change.Reset || len(change.Add)+len(change.Drop) != 0 {
		t.Errorf("back below τ_flush: %+v, want a bare reset", change)
	}
	if _, change = b.Predict(sec(20)); change.Reset || len(change.Add)+len(change.Drop) != 0 {
		t.Errorf("still below τ_flush: %+v, want no change", change)
	}
}

func TestHotPageFiltering(t *testing.T) {
	cfg := fig4Config()
	cache, err := pagecache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, sip := NewBuffered(cache), sipSet{}
	// Rewrite lpn 0 every 10 s; it stays continuously dirty past τ_expire
	// and must drop out of the demand while staying on the SIP list.
	var lastDemand Demand
	for at := sec(0); at <= sec(60); at += sec(5) {
		if at%sec(10) == 0 {
			if _, err := cache.Write(at, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		cache.Flush(at)
		var change SIPChange
		lastDemand, change = b.Predict(at)
		sip.apply(t, change)
	}
	if lastDemand.Total() != 0 {
		t.Errorf("hot page still in demand: %v", lastDemand)
	}
	if len(sip) != 1 || !sip[0] {
		t.Errorf("hot page missing from SIP list: %v", sip)
	}
}

func TestHotPageFilterResetsAfterFlush(t *testing.T) {
	cfg := fig4Config()
	cache, err := pagecache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffered(cache)
	// Keep lpn 0 hot past τ_expire…
	for at := sec(0); at <= sec(40); at += sec(10) {
		if _, err := cache.Write(at, 0, 1); err != nil {
			t.Fatal(err)
		}
		cache.Flush(at)
		b.Predict(at)
	}
	// …let it cool and flush (last write at 40s flushes at 70s)…
	for at := sec(45); at <= sec(75); at += sec(5) {
		cache.Flush(at)
		b.Predict(at)
	}
	if cache.DirtyPageCount() != 0 {
		t.Fatal("setup: page never flushed")
	}
	// …then a fresh write must count as demand again.
	if _, err := cache.Write(sec(80), 0, 1); err != nil {
		t.Fatal(err)
	}
	cache.Flush(sec(80))
	d, _ := b.Predict(sec(80))
	if d.Total() == 0 {
		t.Error("re-dirtied page still treated as hot after flushing")
	}
}

// Property: every demand entry is non-negative, the demand length is Nwb,
// and total demand never exceeds the dirty set size (absent pressure
// over-prediction the upper bound is exact).
func TestDemandBoundsProperty(t *testing.T) {
	cfg := fig4Config()
	f := func(writes []uint16) bool {
		cache, err := pagecache.New(cfg)
		if err != nil {
			return false
		}
		b := NewBuffered(cache)
		var clock time.Duration
		for _, w := range writes {
			clock += time.Duration(w%3000) * time.Millisecond
			if _, err := cache.Write(clock, int64(w%512), 1); err != nil {
				return false
			}
		}
		now := clock + cfg.FlusherPeriod
		cache.Flush(now)
		d, change := b.Predict(now)
		if len(d) != cfg.Nwb() {
			return false
		}
		var total int64
		for _, v := range d {
			if v < 0 {
				return false
			}
			total += v
		}
		dirty := int64(cache.DirtyPageCount()) * int64(cfg.PageSize)
		return total <= dirty && change.Reset && len(change.Add) == cache.DirtyPageCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
