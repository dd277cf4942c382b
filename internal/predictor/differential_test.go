package predictor

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/pagecache"
)

// sipSet is the receiving end of Predict's SIP changes: the set an FTL fed
// every change would hold.
type sipSet map[int64]bool

// apply installs ch. A change must be exact: it never adds a page the set
// holds or drops one it does not.
func (s sipSet) apply(t *testing.T, ch SIPChange) {
	t.Helper()
	if ch.Reset {
		clear(s)
	}
	for _, lpn := range ch.Add {
		if s[lpn] {
			t.Fatalf("change adds lpn %d, already in the set", lpn)
		}
		s[lpn] = true
	}
	for _, lpn := range ch.Drop {
		if !s[lpn] {
			t.Fatalf("change drops lpn %d, not in the set", lpn)
		}
		delete(s, lpn)
	}
}

func (s sipSet) sorted() []int64 {
	out := make([]int64, 0, len(s))
	for lpn := range s {
		out = append(out, lpn)
	}
	slices.Sort(out)
	return out
}

// predictBoth runs Predict and the reference at now and fails unless they
// return the same demand sequence and sip, having accumulated every change
// Predict returned so far, is the reference's SIP set.
func predictBoth(t *testing.T, b *Buffered, ref *refBuffered, sip sipSet, now time.Duration) Demand {
	t.Helper()
	want, wantSIP := ref.Predict(now) // first: it reads the cache only
	got, change := b.Predict(now)
	if !slices.Equal(got, want) {
		t.Fatalf("Predict(%v) demand %v, reference %v", now, got, want)
	}
	sip.apply(t, change)
	slices.Sort(wantSIP)
	if gotSIP := sip.sorted(); !slices.Equal(gotSIP, wantSIP) {
		t.Fatalf("Predict(%v) SIP set\n got %v\nwant %v", now, gotSIP, wantSIP)
	}
	return got
}

// TestPredictMatchesReference drives a small cache through random
// Write/Flush/Drop histories — overwrites that keep pages hot, capacity
// reclaim, TRIM, pressure above τ_flush, Predict with and without a Flush
// before it — in each predictor mode.
func TestPredictMatchesReference(t *testing.T) {
	cfg := pagecache.Config{
		PageSize:      4096,
		CapacityPages: 64,
		FlusherPeriod: time.Second,
		Expire:        4 * time.Second,
		FlushRatio:    0.25,
	}
	modes := []struct {
		name               string
		strict, disableHot bool
	}{
		{"default", false, false},
		{"Strict", true, false},
		{"DisableHotFilter", false, true},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				cache, err := pagecache.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, ref, sip := NewBuffered(cache), newRefBuffered(cache), sipSet{}
				b.Strict, ref.strict = m.strict, m.strict
				b.DisableHotFilter, ref.disableHotFilter = m.disableHot, m.disableHot
				var clock time.Duration
				for tick := 0; tick < 40; tick++ {
					for w := rng.Intn(30); w > 0; w-- {
						at := clock + time.Duration(rng.Int63n(int64(cfg.FlusherPeriod)))
						// A few LPNs take most writes: they stay hot.
						lpn := rng.Int63n(8)
						if rng.Intn(3) == 0 {
							lpn = rng.Int63n(128)
						}
						switch rng.Intn(10) {
						case 0:
							cache.Drop(lpn)
						default:
							if _, err := cache.Write(at, lpn, 1+rng.Intn(4)); err != nil {
								t.Fatal(err)
							}
						}
					}
					clock += cfg.FlusherPeriod
					if rng.Intn(5) != 0 {
						cache.Flush(clock)
					}
					predictBoth(t, b, ref, sip, clock)
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestHotFilterSurvivesTrimAndRedirtyBetweenTicks pins a rule the map-based
// predictor had by accident and the goldens now depend on: first-seen times
// are only reconsidered at Predict, so a hot page that leaves the cache and
// comes back between two Predict calls — trimmed, or reclaimed by a full
// cache — is still hot, and only a page found clean at a Predict starts
// fresh. Resetting it on removal moves Postmark × JIT-GC's WAF (1.139933 →
// 1.144530 at seed 10⁷, 40k ops).
func TestHotFilterSurvivesTrimAndRedirtyBetweenTicks(t *testing.T) {
	cfg := fig4Config()
	cfg.CapacityPages = 8
	removals := map[string]func(t *testing.T, cache *pagecache.Cache, at time.Duration){
		"trim": func(t *testing.T, cache *pagecache.Cache, _ time.Duration) {
			if !cache.Drop(0) {
				t.Fatal("lpn 0 was not dirty")
			}
		},
		"capacity reclaim": func(t *testing.T, cache *pagecache.Cache, at time.Duration) {
			reclaimed, err := cache.Write(at, 100, cfg.CapacityPages) // pushes lpn 0 out
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(reclaimed, 0) {
				t.Fatalf("reclaimed %v, want lpn 0 among them", reclaimed)
			}
			for i := 0; i < cfg.CapacityPages; i++ {
				cache.Drop(100 + int64(i))
			}
		},
	}
	for name, remove := range removals {
		t.Run(name, func(t *testing.T) {
			cache, err := pagecache.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, ref, sip := NewBuffered(cache), newRefBuffered(cache), sipSet{}
			rewrite := func(at time.Duration) {
				t.Helper()
				if _, err := cache.Write(at, 0, 1); err != nil {
					t.Fatal(err)
				}
			}
			// Rewritten every 10 s, lpn 0 is hot from t = 35 s on.
			var d Demand
			for at := sec(0); at <= sec(40); at += sec(5) {
				if at%sec(10) == 0 {
					rewrite(at)
				}
				cache.Flush(at)
				d = predictBoth(t, b, ref, sip, at)
			}
			if d.Total() != 0 {
				t.Fatalf("setup: lpn 0 not hot at 40 s: %v", d)
			}
			// Gone and back inside one interval: still the same episode.
			remove(t, cache, sec(42))
			if cache.IsDirty(0) {
				t.Fatal("lpn 0 still dirty after removal")
			}
			rewrite(sec(43))
			cache.Flush(sec(45))
			if d = predictBoth(t, b, ref, sip, sec(45)); d.Total() != 0 {
				t.Errorf("re-dirtied between ticks, lpn 0 lost its first-seen time: %v", d)
			}
			// Clean at a Predict: the episode ends there.
			remove(t, cache, sec(47))
			cache.Flush(sec(50))
			predictBoth(t, b, ref, sip, sec(50))
			rewrite(sec(52))
			cache.Flush(sec(55))
			if d = predictBoth(t, b, ref, sip, sec(55)); d.Total() == 0 {
				t.Error("lpn 0 found clean at a Predict is still treated as hot")
			}
		})
	}
}
