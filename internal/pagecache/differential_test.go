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
	// the predictor used to keep, swept at every scan. Its keys are the
	// reference's dirty set as of the last scan.
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
	// Until a scan has run nothing may linger behind a removal: the index
	// is the dirty set, and no slot is logged for a sweep that never comes.
	if p.c.firstSeen == nil && (p.c.index.Len() != len(p.r.dirty) || len(p.c.ghostLog) != 0) {
		p.t.Fatalf("%s: never scanned, yet the index holds %d entries for %d dirty pages and %d slots are logged as ghosts",
			op, p.c.index.Len(), len(p.r.dirty), len(p.c.ghostLog))
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

// scan runs ScanDirty at now and holds it to the reference: joined and left
// are the set differences of the reference's dirty set now and at the last
// scan, whatever flushes, drops, reclaims and rewrites came between; every
// dirty page's first-seen time follows the map-based rule; and due counts,
// per interval, the pages the division-based flush-interval formula puts
// there, less the hot ones when the filter is on.
func (p *pair) scan(now time.Duration, hotFilter bool) {
	p.t.Helper()
	cfg := p.c.cfg
	due := make([]int64, cfg.Nwb())
	joined, left := p.c.ScanDirty(now, hotFilter, due)

	var wantJoined, wantLeft []int64
	wantDue := make([]int64, len(due))
	for lpn, last := range p.r.dirty {
		first, seen := p.firstDirty[lpn]
		if !seen {
			first = last
			p.firstDirty[lpn] = last
			wantJoined = append(wantJoined, lpn)
		}
		s, ok := p.c.index.Get(lpn)
		if !ok || p.c.firstSeen[s] != first {
			p.t.Fatalf("scan: lpn %d (indexed %v) first seen %v, want %v", lpn, ok, p.c.firstSeen[s], first)
		}
		if hotFilter && seen && now-first > cfg.Expire {
			continue
		}
		i := 1
		if wait := last + cfg.Expire - now; wait > 0 {
			i = int((wait + cfg.FlusherPeriod - 1) / cfg.FlusherPeriod)
		}
		wantDue[min(i, len(due))-1]++
	}
	for lpn := range p.firstDirty {
		if _, dirty := p.r.dirty[lpn]; !dirty {
			wantLeft = append(wantLeft, lpn)
			delete(p.firstDirty, lpn)
		}
	}
	slices.Sort(wantJoined)
	slices.Sort(wantLeft)
	if got := sorted(joined); !slices.Equal(got, wantJoined) {
		p.t.Fatalf("scan at %v: joined\n got %v\nwant %v", now, got, wantJoined)
	}
	if got := sorted(left); !slices.Equal(got, wantLeft) {
		p.t.Fatalf("scan at %v: left\n got %v\nwant %v", now, got, wantLeft)
	}
	if !slices.Equal(due, wantDue) {
		p.t.Fatalf("scan at %v (hot filter %v): due %v, want %v", now, hotFilter, due, wantDue)
	}
	if p.c.index.Len() != len(p.r.dirty) {
		p.t.Fatalf("scan left %d index entries for %d dirty pages", p.c.index.Len(), len(p.r.dirty))
	}
	p.check("ScanDirty")
}

// TestCacheMatchesReference sweeps random Write/Flush/Drop/scan
// interleavings over a small LPN range and a small cache, so overwrites,
// equal timestamps, capacity reclaim, slot reuse and pages that leave and
// come back between two scans all occur — with the clock moving forward
// only, with timestamps that also run backwards (the re-thread path), and
// with no scan at all, as under every policy but JIT-GC.
func TestCacheMatchesReference(t *testing.T) {
	cfg := Config{
		PageSize:      4096,
		CapacityPages: 48,
		FlusherPeriod: time.Second,
		Expire:        4 * time.Second,
		FlushRatio:    0.5,
	}
	modes := []struct {
		name             string
		backwards, scans bool
	}{
		{"forward", false, true},
		{"backwards", true, true},
		{"never scanned", false, false},
	}
	for _, m := range modes {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			p := newPair(t, cfg)
			var clock time.Duration
			for step := 0; step < 250; step++ {
				// Half the steps keep the timestamp: runs of ties.
				if rng.Intn(2) == 0 {
					clock += time.Duration(rng.Intn(700)) * time.Millisecond
				}
				if m.backwards && rng.Intn(8) == 0 {
					clock = time.Duration(rng.Int63n(int64(clock) + 1))
				}
				switch k := rng.Intn(20); {
				case k < 13:
					p.write(clock, rng.Int63n(96), 1+rng.Intn(6))
				case k < 15:
					p.flush(clock)
				case k < 18 || !m.scans:
					p.drop(rng.Int63n(96))
				default:
					p.scan(clock, rng.Intn(2) == 0)
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", m.name, err)
		}
	}
}

// TestScanTurnoverAcrossRemovalAndRewrite: a page a scan has seen that is
// flushed, trimmed or reclaimed and then written again before the next scan
// neither left nor joined and is still on its first episode, one not written
// again left, and until that scan both keep their slots.
func TestScanTurnoverAcrossRemovalAndRewrite(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityPages = 8
	cfg.FlushRatio = 1
	removals := map[string]func(p *pair){
		"flush": func(p *pair) { p.flush(sec(35)) },
		"trim": func(p *pair) {
			p.drop(0)
			p.drop(1)
		},
		"reclaim": func(p *pair) {
			p.write(sec(35), 100, cfg.CapacityPages) // pushes lpns 0 and 1 out
			for i := 0; i < cfg.CapacityPages; i++ {
				p.drop(100 + int64(i))
			}
		},
	}
	for name, remove := range removals {
		t.Run(name, func(t *testing.T) {
			p := newPair(t, cfg)
			p.write(sec(1), 0, 2)
			p.scan(sec(5), true) // both joined
			remove(p)
			if p.c.IsDirty(0) || p.c.IsDirty(1) || p.c.Drop(0) {
				t.Fatal("a removed page is still dirty or can be dropped again")
			}
			if p.c.DirtyPageCount() != 0 || p.c.index.Len() != 2 {
				t.Fatalf("%d dirty, %d indexed; want 0 and the 2 ghosts", p.c.DirtyPageCount(), p.c.index.Len())
			}
			overwrites := p.c.Stats().Overwrites
			p.write(sec(36), 0, 1) // lpn 0 comes back, lpn 1 does not
			p.write(sec(36), 2, 1) // a new page: not into lpn 1's slot
			if got := p.c.Stats().Overwrites; got != overwrites {
				t.Errorf("reviving a ghost counted %d overwrites", got-overwrites)
			}
			// The reference wants joined {2}, left {1}, and lpn 0 — first
			// seen at 1 s, 39 s ago — left out of due as hot.
			p.scan(sec(40), true)
		})
	}
}

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// sorted returns an ascending copy of xs, which may be the cache's scratch.
func sorted(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
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
