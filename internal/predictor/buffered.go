package predictor

import (
	"time"

	"jitgc/internal/pagecache"
)

// Buffered is the write demand predictor for buffered writes (paper
// §3.2.1). Invoked right after the flusher thread runs at time t, it scans
// the dirty pages of the page cache and computes, for each future
// write-back interval I^i_wb(t), an upper bound D^i_buf(t) on the data that
// will be flushed to the SSD in that interval — while collecting the SIP
// list of logical addresses whose old on-SSD copies those flushes will
// invalidate.
//
// Following the paper, the predictor relaxes the τ_flush condition: it
// assumes every dirty page is flushed once it is older than τ_expire,
// which over-predicts by at most τ_flush but never misses a flush (missed
// flushes are what cause expensive foreground GC).
type Buffered struct {
	cache *pagecache.Cache
	wb    WriteBack
	// Strict, when set, applies the second flusher condition instead of
	// relaxing it: nothing is predicted unless the dirty set already
	// exceeds τ_flush. This reproduces the under-prediction failure mode
	// the paper warns about and exists for the ablation benchmark.
	Strict bool
	// DisableHotFilter turns off hot-page exclusion (ablation knob).
	DisableHotFilter bool

	// demand and sip back Predict's results, so a steady-state tick
	// allocates nothing.
	demand Demand
	sip    []int64
}

// NewBuffered builds a buffered-write predictor over a page cache. The
// write-back parameters are taken from the cache configuration.
func NewBuffered(cache *pagecache.Cache) *Buffered {
	cfg := cache.Config()
	wb := WriteBack{Period: cfg.FlusherPeriod, Expire: cfg.Expire}
	return &Buffered{cache: cache, wb: wb, demand: make(Demand, wb.Nwb())}
}

// WriteBack returns the predictor's timing parameters.
func (b *Buffered) WriteBack() WriteBack { return b.wb }

// Predict computes Dbuf(now) and the SIP list. now must be a flusher
// wake-up instant (the predictor runs right after the flusher). Both
// results share the predictor's buffers and are valid only until the next
// Predict call.
//
// It is one pass over the dirty pages in whatever order the cache holds
// them: a page's flush interval is monotone in its age, so counting pages
// per interval keeps all the age order the prediction needs.
//
// Hot pages: a page the cache has found dirty at every scan for longer than
// τ_expire must be getting rewritten faster than it can expire — it will not
// flush within the horizon, so counting it in Dbuf every window would
// chronically over-predict. Such pages are excluded from demand but kept on
// the SIP list (their stale flash copies are the surest
// soon-to-be-invalidated pages of all). The cache's first-seen track only
// looks at scan instants: a page flushed, reclaimed or trimmed and dirtied
// again between two Predict calls is still on its first episode, and only
// one found clean at a Predict starts fresh.
func (b *Buffered) Predict(now time.Duration) (Demand, []int64) {
	cfg := b.cache.Config()
	nwb := len(b.demand)
	pages := b.demand // page counts per interval until the end
	clear(pages)
	sip := b.sip[:0]
	b.cache.ScanDirty(!b.DisableHotFilter, func(pg pagecache.DirtyPage, firstSeen time.Duration, seen bool) {
		sip = append(sip, pg.LPN)
		if seen && now-firstSeen > b.wb.Expire {
			return // rewritten faster than it can expire: no flush soon
		}
		// Beyond Nwb cannot happen when ages ≤ expire, kept for safety.
		pages[min(flushInterval(pg.LastUpdate, now, b.wb), nwb)-1]++
	})
	b.sip = sip

	limit := cfg.FlushLimit()
	if b.Strict && len(sip) <= limit {
		clear(pages)
		return pages, sip[:0]
	}

	// The flusher's τ_flush condition is equally visible to the host: if
	// the dirty set still exceeds the threshold after the next wake-up's
	// expirations, the flusher pressure-writes the oldest remainder then.
	// Predict those pages as next-interval demand instead of at their
	// (never reached) expiry intervals, so they don't arrive unannounced.
	if !b.Strict {
		over := -int64(limit)
		for _, n := range pages[1:] {
			over += n
		}
		for i := 1; i < nwb && over > 0; i++ {
			n := min(pages[i], over) // the oldest: lowest intervals first
			pages[0] += n
			pages[i] -= n
			over -= n
		}
	}
	for i := range pages {
		pages[i] *= int64(cfg.PageSize)
	}
	return pages, sip
}

// flushInterval returns the index i ≥ 1 of the future write-back interval
// I^i_wb(now) during which a page last updated at u will be flushed: the
// flusher wakes at now+p, now+2p, …, and flushes the page at the first
// wake-up ≥ u + τ_expire.
func flushInterval(u, now time.Duration, wb WriteBack) int {
	due := u + wb.Expire
	if due <= now {
		return 1
	}
	// First wake-up at or after due, counted in periods from now.
	k := (due - now + wb.Period - 1) / wb.Period
	return int(k)
}
