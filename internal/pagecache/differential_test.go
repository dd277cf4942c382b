package pagecache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// pair drives a Cache and the reference model through the same operations.
// Every step compares what the two return (order included), their Stats and
// their DirtyPages, and audits the Cache's structure.
type pair struct {
	t *testing.T
	c *Cache
	r *refCache
	// firstDirty is the first-seen rule written the obvious way: the map
	// the predictor used to keep, swept at every tracking scan.
	firstDirty map[int64]time.Duration
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	return &pair{t: t, c: newCache(t, cfg), r: newRefCache(cfg), firstDirty: map[int64]time.Duration{}}
}

func (p *pair) check(op string) {
	p.t.Helper()
	if err := p.c.CheckConsistency(); err != nil {
		p.t.Fatalf("%s: %v", op, err)
	}
	if got, want := p.c.Stats(), p.r.stats; got != want {
		p.t.Fatalf("%s: stats %+v, reference %+v", op, got, want)
	}
	if got, want := p.c.DirtyPages(), p.r.DirtyPages(); !slices.Equal(got, want) {
		p.t.Fatalf("%s: DirtyPages\n got %v\nwant %v", op, got, want)
	}
	if got, want := p.c.DirtyPageCount(), len(p.r.dirty); got != want {
		p.t.Fatalf("%s: DirtyPageCount %d, reference %d", op, got, want)
	}
}

func (p *pair) write(at time.Duration, lpn int64, n int) {
	p.t.Helper()
	got, err := p.c.Write(at, lpn, n)
	if err != nil {
		p.t.Fatalf("Write(%v, %d, %d): %v", at, lpn, n, err)
	}
	if want := p.r.Write(at, lpn, n); !slices.Equal(got, want) {
		p.t.Fatalf("Write(%v, %d, %d) reclaimed\n got %v\nwant %v", at, lpn, n, got, want)
	}
	p.check("Write")
}

func (p *pair) flush(at time.Duration) {
	p.t.Helper()
	if got, want := p.c.Flush(at), p.r.Flush(at); !slices.Equal(got, want) {
		p.t.Fatalf("Flush(%v)\n got %v\nwant %v", at, got, want)
	}
	p.check("Flush")
}

func (p *pair) drop(lpn int64) {
	p.t.Helper()
	if got, want := p.c.Drop(lpn), p.r.Drop(lpn); got != want {
		p.t.Fatalf("Drop(%d) = %v, reference %v", lpn, got, want)
	}
	p.check("Drop")
}

// scan runs a tracking ScanDirty and holds it to the reference dirty set
// and to the map-based first-seen rule.
func (p *pair) scan() {
	p.t.Helper()
	type seenAt struct {
		first time.Duration
		seen  bool
	}
	got := map[int64]seenAt{}
	p.c.ScanDirty(true, func(pg DirtyPage, first time.Duration, seen bool) {
		if last, ok := p.r.dirty[pg.LPN]; !ok || last != pg.LastUpdate {
			p.t.Fatalf("scan visited %+v, reference holds (%v, %v)", pg, last, ok)
		}
		if _, dup := got[pg.LPN]; dup {
			p.t.Fatalf("scan visited lpn %d twice", pg.LPN)
		}
		got[pg.LPN] = seenAt{first, seen}
	})
	if len(got) != len(p.r.dirty) {
		p.t.Fatalf("scan visited %d pages, reference holds %d", len(got), len(p.r.dirty))
	}
	for lpn, last := range p.r.dirty {
		first, seen := p.firstDirty[lpn]
		if !seen {
			first = last
			p.firstDirty[lpn] = last
		}
		if got[lpn] != (seenAt{first, seen}) {
			p.t.Fatalf("scan: lpn %d first seen %+v, want %+v", lpn, got[lpn], seenAt{first, seen})
		}
	}
	for lpn := range p.firstDirty {
		if _, dirty := p.r.dirty[lpn]; !dirty {
			delete(p.firstDirty, lpn)
		}
	}
	p.check("ScanDirty")
}

// TestCacheMatchesReference sweeps random Write/Flush/Drop/scan
// interleavings over a small LPN range and a small cache, so overwrites,
// equal timestamps, capacity reclaim and slot reuse all occur — once with
// the clock moving forward only, once with timestamps that also run
// backwards (the re-thread path).
func TestCacheMatchesReference(t *testing.T) {
	cfg := Config{
		PageSize:      4096,
		CapacityPages: 48,
		FlusherPeriod: time.Second,
		Expire:        4 * time.Second,
		FlushRatio:    0.5,
	}
	for _, backwards := range []bool{false, true} {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			p := newPair(t, cfg)
			var clock time.Duration
			for step := 0; step < 250; step++ {
				// Half the steps keep the timestamp: runs of ties.
				if rng.Intn(2) == 0 {
					clock += time.Duration(rng.Intn(700)) * time.Millisecond
				}
				if backwards && rng.Intn(8) == 0 {
					clock = time.Duration(rng.Int63n(int64(clock) + 1))
				}
				switch k := rng.Intn(20); {
				case k < 13:
					p.write(clock, rng.Int63n(96), 1+rng.Intn(6))
				case k < 15:
					p.flush(clock)
				case k < 18:
					p.drop(rng.Int63n(96))
				default:
					p.scan()
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("backwards=%v: %v", backwards, err)
		}
	}
}

// TestTieRunWrittenInRandomOrder: 10k pages at one timestamp, written one
// by one in random LPN order, must leave in LPN order however they go —
// capacity reclaim first, then pressure flush, then expiry.
func TestTieRunWrittenInRandomOrder(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityPages = 9000 // the last 1000 writes each reclaim one page
	cfg.FlushRatio = 0.5
	p := newPair(t, cfg)
	for _, lpn := range rand.New(rand.NewSource(1)).Perm(10000) {
		got, err := p.c.Write(time.Second, int64(lpn), 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := p.r.Write(time.Second, int64(lpn), 1); !slices.Equal(got, want) {
			t.Fatalf("Write(%d) reclaimed %v, reference %v", lpn, got, want)
		}
	}
	p.check("fill")
	p.flush(5 * time.Second)  // pressure: 9000 → 4500
	p.flush(40 * time.Second) // expiry: the rest
	if n := p.c.DirtyPageCount(); n != 0 {
		t.Errorf("%d pages left after expiry", n)
	}
}

// TestCapacityReclaimSplitsTieRun: reclaim that needs only part of a run of
// equal timestamps takes the run's lowest LPNs, wherever they sit in
// arrival order, and leaves the rest of the run intact for the next one.
func TestCapacityReclaimSplitsTieRun(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityPages = 100
	p := newPair(t, cfg)
	for _, lpn := range rand.New(rand.NewSource(2)).Perm(90) {
		p.write(time.Second, int64(lpn), 1)
	}
	p.write(2*time.Second, 1000, 30) // 20 over: lpns 0..19 of the first run
	p.write(2*time.Second, 2000, 5)  // 5 over: lpns 20..24
	p.write(3*time.Second, 3000, 80) // 80 over: the rest of run 1, then 15 of run 2
	p.flush(4 * time.Second)         // pressure, splitting run 2 again
}

// TestDropHeadTailMiddle unlinks from every position of the age list,
// including the only entry, and reuses the freed slots.
func TestDropHeadTailMiddle(t *testing.T) {
	p := newPair(t, testConfig())
	for i := int64(0); i < 5; i++ {
		p.write(time.Duration(i)*time.Second, i, 1)
	}
	p.drop(0) // head
	p.drop(4) // tail
	p.drop(2) // middle
	p.drop(2) // already gone
	p.write(5*time.Second, 7, 3)
	p.drop(1)
	p.drop(3)
	p.drop(8)
	p.drop(7)
	p.drop(9) // the only entry
	p.write(6*time.Second, 0, 2)
	p.flush(time.Minute)
}
