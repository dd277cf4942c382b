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

	// demand backs Predict's result, so a steady-state tick allocates
	// nothing. installed records that the last change Predict returned left
	// the receiver's SIP set equal to the dirty set.
	demand    Demand
	installed bool
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

// Predict computes Dbuf(now) and what has changed in the SIP set — the pages
// dirty in the cache — since the previous call. now must be a flusher
// wake-up instant (the predictor runs right after the flusher). Both
// results share buffers with the predictor and the cache and are valid only
// until the next Predict call. Whoever keeps a SIP set must apply every
// call's change, in order.
//
// The work is the cache's: one pass over the dirty pages, oldest first,
// counting them per interval (a page's flush interval is monotone in its
// age) and noting the ones it had not seen before, then a sweep of the
// pages that left since the last pass.
//
// Hot pages: a page the cache has found dirty at every scan for longer than
// τ_expire must be getting rewritten faster than it can expire — it will not
// flush within the horizon, so counting it in Dbuf every window would
// chronically over-predict. Such pages are excluded from demand but stay in
// the SIP set (their stale flash copies are the surest
// soon-to-be-invalidated pages of all). The cache's first-seen track only
// looks at scan instants: a page flushed, reclaimed or trimmed and dirtied
// again between two Predict calls is still on its first episode, and only
// one found clean at a Predict starts fresh.
func (b *Buffered) Predict(now time.Duration) (Demand, SIPChange) {
	cfg := b.cache.Config()
	nwb := len(b.demand)
	pages := b.demand // page counts per interval until the end
	limit := cfg.FlushLimit()
	empty := b.Strict && b.cache.DirtyPageCount() <= limit
	joined, left := b.cache.ScanDirty(now, !b.DisableHotFilter, pages)
	if empty {
		clear(pages)
		change := SIPChange{Reset: b.installed}
		b.installed = false
		return pages, change
	}
	change := SIPChange{Add: joined, Drop: left}
	if !b.installed {
		// The receiver holds nothing, or a set this predictor did not
		// build: replace it with every dirty page.
		dirty := b.cache.DirtyPages()
		change = SIPChange{Reset: true, Add: make([]int64, len(dirty))}
		for i, pg := range dirty {
			change.Add[i] = pg.LPN
		}
		b.installed = true
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
	return pages, change
}
