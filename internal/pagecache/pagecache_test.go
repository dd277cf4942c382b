package pagecache

import (
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func testConfig() Config {
	return Config{
		PageSize:      4096,
		CapacityPages: 1000,
		FlusherPeriod: 5 * time.Second,
		Expire:        30 * time.Second,
		FlushRatio:    0.5,
	}
}

func newCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.CapacityPages = 0 },
		func(c *Config) { c.FlusherPeriod = 0 },
		func(c *Config) { c.Expire = 0 },
		func(c *Config) { c.Expire = 7 * time.Second }, // not a multiple of p
		func(c *Config) { c.FlushRatio = 0 },
		func(c *Config) { c.FlushRatio = 1.5 },
	}
	for i, m := range mutations {
		cfg := testConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
	}
}

func TestNwb(t *testing.T) {
	if got := testConfig().Nwb(); got != 6 {
		t.Errorf("Nwb = %d, want 6", got)
	}
}

func TestWriteValidatesArguments(t *testing.T) {
	c := newCache(t, testConfig())
	// The index stores only LPNs in [0, MaxLPN) (lpnmap panics on negative
	// ones, and its directory spans the range), so Write has to turn the
	// others away itself, by name.
	for _, w := range []struct {
		lpn int64
		n   int
	}{{-1, 1}, {math.MinInt64, 1}, {math.MaxInt64, 2}, {math.MaxInt64 - 2, 3}, {MaxLPN - 1, 2}, {MaxLPN, 1}} {
		if _, err := c.Write(0, w.lpn, w.n); !errors.Is(err, ErrBadLPN) {
			t.Errorf("Write(lpn %d, %d pages) = %v, want ErrBadLPN", w.lpn, w.n, err)
		}
	}
	for _, lpn := range []int64{-1, MaxLPN, math.MaxInt64} {
		if c.IsDirty(lpn) || c.Drop(lpn) {
			t.Errorf("lpn %d is dirty or droppable", lpn)
		}
	}
	if c.DirtyPageCount() != 0 {
		t.Error("a rejected write left pages behind")
	}
	// Past the 64 GiB preset's 2^24 pages: the index's directory grows.
	if _, err := c.Write(0, 1<<24-2, 2); err != nil || !c.IsDirty(1<<24-1) {
		t.Errorf("write ending at LPN 2^24: %v", err)
	}
	if _, err := c.Write(0, 0, 0); err == nil {
		t.Error("zero-length write accepted")
	}
}

func TestExpiryFlush(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(2*time.Second, 10, 3); err != nil {
		t.Fatal(err)
	}
	// Not yet expired at 30s (age 28s).
	if got := c.Flush(30 * time.Second); len(got) != 0 {
		t.Errorf("flush at 30s = %v, want none", got)
	}
	// Expired at 35s (age 33s ≥ 30s).
	got := c.Flush(35 * time.Second)
	if len(got) != 3 {
		t.Fatalf("flush at 35s = %v, want 3 pages", got)
	}
	for i, lpn := range got {
		if lpn != int64(10+i) {
			t.Errorf("flushed[%d] = %d, want %d", i, lpn, 10+i)
		}
	}
	if c.DirtyPageCount() != 0 {
		t.Errorf("dirty count after flush = %d", c.DirtyPageCount())
	}
}

func TestOverwriteResetsAge(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(20*time.Second, 5, 1); err != nil { // B → B′
		t.Fatal(err)
	}
	if got := c.Flush(35 * time.Second); len(got) != 0 {
		t.Errorf("rewritten page flushed at 35s: %v (age only 15s)", got)
	}
	if got := c.Flush(50 * time.Second); len(got) != 1 {
		t.Errorf("rewritten page not flushed at 50s: %v", got)
	}
	st := c.Stats()
	if st.Overwrites != 1 {
		t.Errorf("overwrites = %d, want 1", st.Overwrites)
	}
}

func TestPressureFlushKeepsDirtyAtThreshold(t *testing.T) {
	cfg := testConfig() // capacity 1000, ratio 0.5 → limit 500
	c := newCache(t, cfg)
	if _, err := c.Write(time.Second, 0, 700); err != nil {
		t.Fatal(err)
	}
	got := c.Flush(5 * time.Second) // nothing expired, but 700 > 500
	if len(got) != 200 {
		t.Fatalf("pressure flush = %d pages, want 200", len(got))
	}
	if c.DirtyPageCount() != 500 {
		t.Errorf("dirty after pressure flush = %d, want 500", c.DirtyPageCount())
	}
	if st := c.Stats(); st.PressureFlushes != 200 {
		t.Errorf("pressure flush counter = %d, want 200", st.PressureFlushes)
	}
}

func TestPressureFlushEvictsOldestFirst(t *testing.T) {
	cfg := testConfig()
	c := newCache(t, cfg)
	if _, err := c.Write(time.Second, 1000, 300); err != nil { // older
		t.Fatal(err)
	}
	if _, err := c.Write(2*time.Second, 2000, 300); err != nil { // newer
		t.Fatal(err)
	}
	got := c.Flush(5 * time.Second) // 600 > 500 → flush 100 oldest
	if len(got) != 100 {
		t.Fatalf("pressure flush = %d pages, want 100", len(got))
	}
	for _, lpn := range got {
		if lpn < 1000 || lpn >= 1300 {
			t.Errorf("flushed %d, want from the older extent [1000,1300)", lpn)
		}
	}
}

func TestCapacityReclaimOnWrite(t *testing.T) {
	cfg := testConfig() // capacity 1000
	c := newCache(t, cfg)
	if _, err := c.Write(time.Second, 0, 900); err != nil {
		t.Fatal(err)
	}
	reclaimed, err := c.Write(2*time.Second, 5000, 200) // 1100 > 1000
	if err != nil {
		t.Fatal(err)
	}
	if len(reclaimed) != 100 {
		t.Fatalf("reclaimed = %d pages, want 100", len(reclaimed))
	}
	for _, lpn := range reclaimed {
		if lpn >= 900 {
			t.Errorf("reclaimed %d, want oldest extent pages", lpn)
		}
	}
	if c.DirtyPageCount() != 1000 {
		t.Errorf("dirty after reclaim = %d, want 1000", c.DirtyPageCount())
	}
}

func TestDirtyPagesSnapshotSorted(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(3*time.Second, 30, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(time.Second, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(time.Second, 5, 1); err != nil {
		t.Fatal(err)
	}
	pages := c.DirtyPages()
	if len(pages) != 3 {
		t.Fatalf("snapshot size = %d", len(pages))
	}
	if pages[0].LPN != 5 || pages[1].LPN != 10 || pages[2].LPN != 30 {
		t.Errorf("snapshot order = %v (want oldest first, ties by LPN)", pages)
	}
}

func TestDrop(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(0, 7, 1); err != nil {
		t.Fatal(err)
	}
	if !c.Drop(7) {
		t.Error("Drop of dirty page returned false")
	}
	if c.Drop(7) {
		t.Error("Drop of clean page returned true")
	}
	if c.DirtyPageCount() != 0 {
		t.Error("page still dirty after Drop")
	}
}

func TestStatsCounters(t *testing.T) {
	c := newCache(t, testConfig())
	if _, err := c.Write(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	c.Flush(40 * time.Second)
	st := c.Stats()
	if st.WrittenPages != 10 || st.FlushedPages != 10 || st.ExpiredFlushes != 10 {
		t.Errorf("stats = %+v", st)
	}
}

// Property: a dirty page is never flushed before its age reaches τ_expire
// (absent pressure), and always flushed by the first wake-up after expiry.
func TestFlushTimingProperty(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityPages = 1 << 20 // no pressure
	f := func(writesRaw []uint16) bool {
		c, err := New(cfg)
		if err != nil {
			return false
		}
		writeTime := make(map[int64]time.Duration)
		var clock time.Duration
		for _, w := range writesRaw {
			clock += time.Duration(w%4000) * time.Millisecond
			lpn := int64(w % 64)
			if _, err := c.Write(clock, lpn, 1); err != nil {
				return false
			}
			writeTime[lpn] = clock
		}
		// Run the flusher over enough wake-ups to drain everything.
		end := clock + cfg.Expire + 2*cfg.FlusherPeriod
		for at := cfg.FlusherPeriod; at <= end; at += cfg.FlusherPeriod {
			for _, lpn := range c.Flush(at) {
				age := at - writeTime[lpn]
				if age < cfg.Expire {
					return false // flushed too early
				}
				if age >= cfg.Expire+cfg.FlusherPeriod && at-cfg.FlusherPeriod >= writeTime[lpn]+cfg.Expire {
					return false // missed an earlier wake-up it was due at
				}
				delete(writeTime, lpn)
			}
		}
		return c.DirtyPageCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCheckConsistencyViolations breaks one structural invariant at a time
// and expects the audit to name it.
func TestCheckConsistencyViolations(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(c *Cache)
		want    string
	}{
		{"list cycle", func(c *Cache) { c.slab[c.tail].next = c.head }, "revisits"},
		{"list leaves slab", func(c *Cache) { c.slab[c.tail].next = 99 }, "leaves the slab"},
		{"back link", func(c *Cache) { c.slab[c.tail].prev = c.head }, "prev ="},
		{"index points elsewhere", func(c *Cache) { c.index.Set(c.slab[c.head].lpn, c.tail+1) }, "index says"},
		{"age order", func(c *Cache) { c.slab[c.head].last = time.Hour }, "age order broken"},
		{"tail", func(c *Cache) { c.tail = c.head }, "tail ="},
		{"index entry with no slot", func(c *Cache) { c.index.Set(1000, 1) }, "index maps lpn 1000 to slot 0"},
		{"index entry for a free slot", func(c *Cache) { c.index.Set(1<<20, c.free+1) }, "index maps lpn 1048576"},
		{"index miscounted", func(c *Cache) { c.indexed++ }, "index 5, its counter says 6"},
		{"free list reaches live slot", func(c *Cache) { c.slab[c.free].next = c.head }, "free list reaches"},
		{"free list reaches ghost", func(c *Cache) { c.slab[c.free].next = ghost(c) }, "free list reaches"},
		{"leaked slot", func(c *Cache) { c.free = noSlot }, "neither dirty, ghost nor free"},
		{"first-seen track short", func(c *Cache) { c.firstSeen = c.firstSeen[:1] }, "first-seen track"},
		{"ghost on the age list", func(c *Cache) {
			g := ghost(c)
			c.slab[g].next = c.head
			c.slab[c.head].prev = g
			c.head = g
		}, "prev ="},
		{"ghost not indexed", func(c *Cache) { c.index.Clear(c.slab[ghost(c)].lpn) }, "ghost slot"},
		{"ghost never seen", func(c *Cache) { c.firstSeen[ghost(c)] = unseen }, "no first-seen time"},
		{"ghost the sweep will miss", func(c *Cache) { c.ghostLog = c.ghostLog[:0] }, "not in the log"},
		{"ghost miscounted", func(c *Cache) { c.ghosts++ }, "counter says"},
		{"ghost flag lost", func(c *Cache) { c.slab[ghost(c)].prev = noSlot }, "0 ghost slots, counter says 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCache(t, testConfig())
			for i := int64(0); i < 6; i++ {
				if _, err := c.Write(time.Duration(i)*time.Second, i, 1); err != nil {
					t.Fatal(err)
				}
			}
			c.Drop(5) // never scanned: a free slot
			c.ScanDirty(5*time.Second, make([]int64, c.cfg.Nwb()))
			c.Drop(2) // scanned: a ghost
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("fresh cache inconsistent: %v", err)
			}
			tc.corrupt(c)
			err := c.CheckConsistency()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// ghost returns the slot of the one ghost TestCheckConsistencyViolations sets
// up.
func ghost(c *Cache) int32 { return c.ghostLog[0] }

// TestCacheSteadyStateZeroAlloc: once the slab and the index have reached
// their working size, the per-page operations of a request allocate nothing —
// an overwrite, a dirty check that hits and one that misses, and a page
// dropped and written again (a ghost made and revived in its slot).
func TestCacheSteadyStateZeroAlloc(t *testing.T) {
	c := newCache(t, testConfig())
	const n = 600
	for lpn := int64(0); lpn < n; lpn++ {
		if _, err := c.Write(0, lpn*3, 1); err != nil {
			t.Fatal(err)
		}
	}
	due := make([]int64, c.cfg.Nwb())
	c.ScanDirty(0, due) // every page seen: removals leave ghosts
	now, lpn := time.Duration(0), int64(0)
	cycle := func() {
		now += time.Millisecond
		p := lpn % n * 3
		c.Write(now, p, 1)
		if !c.IsDirty(p) || c.IsDirty(p+1) {
			t.Fatal("IsDirty wrong")
		}
		if !c.Drop(p) {
			t.Fatal("Drop missed a dirty page")
		}
		c.Write(now, p, 1)
		lpn++
	}
	for i := 0; i < 2001; i++ { // as many ghosts logged as the measured cycles will
		cycle()
	}
	c.ScanDirty(now, due)
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Errorf("overwrite + IsDirty + Drop/Write allocates %.2f times per run, want 0", avg)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestSlabGrowsByDoubling: dirtying n distinct pages allocates the slab at
// most ⌈log₂(n/64)⌉ + 1 times, and once a scan tracks first-seen times that
// track grows with it, at the same capacity, once per doubling too. The
// count is the least of a few trials, since whatever else the runtime
// allocates meanwhile only adds to it, and collections are off while it is
// taken, since each would add a few of its own.
func TestSlabGrowsByDoubling(t *testing.T) {
	for _, n := range []int64{1, 64, 65, 1000, 100_000} {
		for _, scanned := range []bool{false, true} {
			got := math.MaxInt
			for trial := 0; trial < 5; trial++ {
				cfg := testConfig()
				cfg.CapacityPages = int(n)
				c := newCache(t, cfg)
				if scanned {
					c.ScanDirty(0, make([]int64, cfg.Nwb()))
				}
				for lpn := int64(0); lpn < n; lpn++ { // the index at its working size
					c.index.Set(lpn, 1)
					c.index.Clear(lpn)
				}
				var before, after runtime.MemStats
				gc := debug.SetGCPercent(-1)
				runtime.ReadMemStats(&before)
				for lpn := int64(0); lpn < n; lpn++ {
					if _, err := c.Write(0, lpn, 1); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				debug.SetGCPercent(gc)
				got = min(got, int(after.Mallocs-before.Mallocs))
				if scanned && cap(c.firstSeen) != cap(c.slab) {
					t.Fatalf("n=%d: first-seen capacity %d, slab %d", n, cap(c.firstSeen), cap(c.slab))
				}
				if err := c.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			}
			tracks := 1
			if scanned {
				tracks = 2
			}
			if want := tracks * (1 + max(0, int(math.Ceil(math.Log2(float64(n)/minSlots))))); got > want {
				t.Errorf("n=%d scanned=%v: %d allocations, want ≤ %d", n, scanned, got, want)
			}
		}
	}
}

// TestScratchGrowsByDoubling: the scratch buffers behind ScanDirty's joined
// and left slices, Flush's result and the ghost log grow as the slab does,
// so carrying n pages through each takes at most ⌈log₂(n/64)⌉ + 1
// allocations per buffer. The n pages are written at distinct times, so the
// flusher's runs of equal timestamps are one page long and the run buffer
// is allocated once. Counts are the least of a few trials with collections
// off, as in TestSlabGrowsByDoubling.
func TestScratchGrowsByDoubling(t *testing.T) {
	for _, n := range []int64{1, 64, 65, 1000, 100_000} {
		join, flush, left := math.MaxInt, math.MaxInt, math.MaxInt
		for trial := 0; trial < 5; trial++ {
			cfg := testConfig()
			cfg.CapacityPages = int(n)
			c := newCache(t, cfg)
			due := make([]int64, cfg.Nwb())
			c.ScanDirty(0, due) // track first-seen times, so flushed pages become ghosts
			for lpn := int64(0); lpn < n; lpn++ {
				if _, err := c.Write(time.Duration(lpn), lpn, 1); err != nil {
					t.Fatal(err)
				}
			}
			end := time.Duration(n) + cfg.Expire
			var joined, flushed, gone []int64
			join = min(join, mallocs(func() { joined, _ = c.ScanDirty(time.Duration(n), due) }))
			flush = min(flush, mallocs(func() { flushed = c.Flush(end) }))
			left = min(left, mallocs(func() { _, gone = c.ScanDirty(end, due) }))
			if len(joined) != int(n) || len(flushed) != int(n) || len(gone) != int(n) {
				t.Fatalf("n=%d: %d joined, %d flushed, %d left", n, len(joined), len(flushed), len(gone))
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		}
		steps := 1 + max(0, int(math.Ceil(math.Log2(float64(n)/minSlots))))
		if join > steps || flush > 2*steps+1 || left > steps {
			t.Errorf("n=%d: joined %d, flush and ghost log %d, left %d allocations; want ≤ %d, %d, %d",
				n, join, flush, left, steps, 2*steps+1, steps)
		}
	}
}

// mallocs counts the heap allocations f makes, with collections off.
func mallocs(f func()) int {
	var before, after runtime.MemStats
	gc := debug.SetGCPercent(-1)
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gc)
	return int(after.Mallocs - before.Mallocs)
}
