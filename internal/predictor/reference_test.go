package predictor

import (
	"time"

	"jitgc/internal/pagecache"
)

// refBuffered is Buffered as it was before the sort-free scan: a sorted
// DirtyPages snapshot, an LPN-keyed first-dirty map swept at every Predict,
// and a second pass over the later-interval pages for the τ_flush rule. The
// differential tests hold Predict to it.
type refBuffered struct {
	cache      *pagecache.Cache
	wb         WriteBack
	strict     bool
	firstDirty map[int64]time.Duration
}

func newRefBuffered(cache *pagecache.Cache) *refBuffered {
	cfg := cache.Config()
	return &refBuffered{
		cache:      cache,
		wb:         WriteBack{Period: cfg.FlusherPeriod, Expire: cfg.Expire},
		firstDirty: make(map[int64]time.Duration),
	}
}

func (b *refBuffered) Predict(now time.Duration) (Demand, []int64) {
	pages := b.cache.DirtyPages()
	hot := b.updateHotSet(pages, now)
	return predictFromDirty(pages, now, b.wb, b.cache.Config(), b.strict, hot)
}

// updateHotSet refreshes the first-dirty tracking and returns the set of
// pages continuously dirty for longer than τ_expire. The sweep runs only
// here, so "continuously" means "at every Predict".
func (b *refBuffered) updateHotSet(pages []pagecache.DirtyPage, now time.Duration) map[int64]bool {
	seen := make(map[int64]bool, len(pages))
	var hot map[int64]bool
	for _, pg := range pages {
		seen[pg.LPN] = true
		first, ok := b.firstDirty[pg.LPN]
		if !ok {
			b.firstDirty[pg.LPN] = pg.LastUpdate
			continue
		}
		if now-first > b.wb.Expire {
			if hot == nil {
				hot = make(map[int64]bool)
			}
			hot[pg.LPN] = true
		}
	}
	for lpn := range b.firstDirty {
		if !seen[lpn] {
			delete(b.firstDirty, lpn)
		}
	}
	return hot
}

func predictFromDirty(pages []pagecache.DirtyPage, now time.Duration, wb WriteBack, cfg pagecache.Config, strict bool, hot map[int64]bool) (Demand, []int64) {
	nwb := wb.Nwb()
	demand := make(Demand, nwb)
	sip := make([]int64, 0, len(pages))

	limit := int(cfg.FlushRatio * float64(cfg.CapacityPages))
	if strict && len(pages) <= limit {
		return demand, sip
	}

	pageBytes := int64(cfg.PageSize)
	// First pass: expiry-based intervals. Pages due at the next wake-up go
	// to D¹; the rest are kept (in age order — DirtyPages sorts oldest
	// first) for the pressure check below.
	laterIntervals := make([]int, 0, len(pages))
	for _, pg := range pages {
		sip = append(sip, pg.LPN)
		if hot[pg.LPN] {
			continue
		}
		i := flushInterval(pg.LastUpdate, now, wb)
		if i <= 1 {
			demand[0] += pageBytes
			continue
		}
		if i > nwb {
			i = nwb
		}
		laterIntervals = append(laterIntervals, i)
	}

	// Second pass: the oldest `over` later pages are pressure-flushed at
	// the next wake-up.
	over := 0
	if !strict {
		over = len(laterIntervals) - limit
	}
	for idx, i := range laterIntervals {
		if idx < over {
			demand[0] += pageBytes
		} else {
			demand[i-1] += pageBytes
		}
	}
	return demand, sip
}

// flushInterval returns the index i ≥ 1 of the future write-back interval
// I^i_wb(now) during which a page last updated at u will be flushed: the
// flusher wakes at now+p, now+2p, …, and flushes the page at the first
// wake-up ≥ u + τ_expire. Predict gets the same answer from the cache's
// threshold walk.
func flushInterval(u, now time.Duration, wb WriteBack) int {
	due := u + wb.Expire
	if due <= now {
		return 1
	}
	// First wake-up at or after due, counted in periods from now.
	k := (due - now + wb.Period - 1) / wb.Period
	return int(k)
}
