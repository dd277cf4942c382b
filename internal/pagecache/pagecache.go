// Package pagecache models the Linux write-back page cache as the JIT-GC
// paper describes it (§3.2.1): buffered writes dirty cache pages; a flusher
// thread wakes every p seconds and evicts dirty data that (1) is older than
// the expiration threshold τ_expire, or (2) overflows the flush threshold
// τ_flush. The per-page dirty ages this model exposes are exactly the
// host-side information the buffered-write predictor consumes.
package pagecache

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"jitgc/internal/lpnmap"
)

// Config parameterizes the cache model.
type Config struct {
	// PageSize is the cache page size in bytes.
	PageSize int
	// CapacityPages bounds the number of dirty pages the cache may hold.
	// Writes beyond the bound force synchronous eviction of the oldest
	// dirty pages (modelling direct reclaim).
	CapacityPages int
	// FlusherPeriod is p, the flusher thread wake interval.
	FlusherPeriod time.Duration
	// Expire is τ_expire: dirty data older than this is written back at
	// the next flusher wake-up.
	Expire time.Duration
	// FlushRatio is τ_flush expressed as a fraction of CapacityPages: when
	// the dirty set exceeds it, the flusher also writes back the oldest
	// dirty pages until the dirty set fits again.
	FlushRatio float64
}

// DefaultConfig mirrors the paper's running example: p = 5 s,
// τ_expire = 30 s, τ_flush = 10%.
func DefaultConfig() Config {
	return Config{
		PageSize:      4096,
		CapacityPages: 1 << 18, // 1 GiB of 4 KiB pages
		FlusherPeriod: 5 * time.Second,
		Expire:        30 * time.Second,
		FlushRatio:    0.10,
	}
}

// Validate reports configuration errors, including the paper's structural
// assumption that τ_expire is a multiple of p.
func (c Config) Validate() error {
	switch {
	case c.PageSize <= 0:
		return fmt.Errorf("pagecache: page size %d", c.PageSize)
	case c.CapacityPages <= 0:
		return fmt.Errorf("pagecache: capacity %d pages", c.CapacityPages)
	case c.FlusherPeriod <= 0:
		return fmt.Errorf("pagecache: flusher period %v", c.FlusherPeriod)
	case c.Expire <= 0:
		return fmt.Errorf("pagecache: expire %v", c.Expire)
	case c.Expire%c.FlusherPeriod != 0:
		return fmt.Errorf("pagecache: expire %v is not a multiple of flusher period %v", c.Expire, c.FlusherPeriod)
	case c.FlushRatio <= 0 || c.FlushRatio > 1:
		return fmt.Errorf("pagecache: flush ratio %v outside (0,1]", c.FlushRatio)
	}
	return nil
}

// FlushLimit returns τ_flush in pages: the dirty-set size above which the
// flusher writes back the oldest pages regardless of age.
func (c Config) FlushLimit() int { return int(c.FlushRatio * float64(c.CapacityPages)) }

// Nwb returns τ_expire / p, the number of write-back intervals the
// buffered-write predictor looks ahead.
func (c Config) Nwb() int { return int(c.Expire / c.FlusherPeriod) }

// DirtyPage is a snapshot entry of one dirty cache page.
type DirtyPage struct {
	LPN int64
	// LastUpdate is when the page was last written; an overwrite resets it
	// (the paper's B → B′ example), postponing write-back.
	LastUpdate time.Duration
}

// Stats counts traffic through the cache.
type Stats struct {
	// WrittenPages counts buffered page writes into the cache (rewrites of
	// an already-dirty page included).
	WrittenPages int64
	// FlushedPages counts pages evicted to the SSD.
	FlushedPages int64
	// ExpiredFlushes counts pages flushed by the τ_expire condition.
	ExpiredFlushes int64
	// PressureFlushes counts pages flushed by the τ_flush condition or by
	// direct reclaim on a full cache.
	PressureFlushes int64
	// Overwrites counts writes that hit an already-dirty page — the pages
	// whose on-SSD copies the SIP list marks soon-to-be-invalidated.
	Overwrites int64
}

// Cache is the write-back cache model. It is not safe for concurrent use.
//
// Dirty pages live in a slab of fixed-size entries, found through an LPN
// index and threaded as a doubly linked list in age order, oldest at the
// head. Simulated time does not run backwards, so a write is unlink +
// push-back and the flusher pops a prefix: nothing is sorted per tick.
// Pages sharing a timestamp sit in arrival order; the (LastUpdate, LPN)
// order the cache promises is restored where it is consumed, by LPN-sorting
// each run of equal timestamps as it is emitted. A write older than the
// tail (nothing but tests and probes issues one) only sets reorder, and the
// next reader re-threads the whole list once.
//
// Once a ScanDirty has run, a page it has seen does not give its slot up
// when it leaves the cache: it becomes a ghost — off the age list, still in
// the index, its first-seen time intact — until the next scan. A write
// before then revives it in place; the scan frees the ones still gone.
type Cache struct {
	cfg   Config
	stats Stats

	slab       []entry
	index      lpnmap.Map[int32] // LPN → slab slot, dirty pages and ghosts
	head, tail int32             // age list ends, noSlot when empty
	free       int32             // free slots, chained through entry.next
	reorder    bool              // a backdated write broke age order

	// firstSeen (parallel to slab, allocated by the first ScanDirty) holds
	// each page's LastUpdate as of the first scan of its current run of
	// scans that found it dirty, unseen before any.
	firstSeen []time.Duration
	// ghosts counts the ghost slots; ghostLog lists every slot that became
	// one since the last scan, revived ones and repeats included.
	ghosts   int
	ghostLog []int32

	// Steady-state scratch: flushBuf backs the slices Write and Flush
	// return, runBuf holds one run of equal timestamps while it is sorted,
	// joinBuf and leftBuf back the slices ScanDirty returns.
	flushBuf, joinBuf, leftBuf []int64
	runBuf                     []tie
}

// entry is one dirty page. Free slots use only next; a ghost keeps lpn and
// has prev == ghostSlot.
type entry struct {
	lpn        int64
	last       time.Duration
	prev, next int32
}

// tie is one member of a run of pages sharing a timestamp.
type tie struct {
	lpn  int64
	slot int32
}

const (
	noSlot    int32         = -1
	ghostSlot int32         = -2
	unseen    time.Duration = math.MinInt64
	allAges   time.Duration = math.MaxInt64
)

// ErrBadLPN is returned for logical page numbers that are negative or run
// past the end of the int64 range.
var ErrBadLPN = errors.New("pagecache: negative LPN")

// New creates a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{cfg: cfg, head: noSlot, tail: noSlot, free: noSlot}, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// DirtyPageCount returns the current number of dirty pages.
func (c *Cache) DirtyPageCount() int { return c.index.Len() - c.ghosts }

// isGhost reports whether the indexed slot s holds a ghost. A cache without
// ghosts answers without loading the entry.
func (c *Cache) isGhost(s int32) bool { return c.ghosts != 0 && c.slab[s].prev == ghostSlot }

// Write records a buffered write of n consecutive pages starting at lpn at
// time now. If the cache would exceed its capacity, the oldest dirty pages
// are reclaimed synchronously and returned so the caller can issue them to
// the SSD immediately (they count as pressure flushes). The returned slice
// shares the cache's scratch buffer and is valid only until the next Write
// or Flush call.
func (c *Cache) Write(now time.Duration, lpn int64, n int) (reclaimed []int64, err error) {
	if lpn < 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	if n <= 0 || n > math.MaxInt32-len(c.slab) { // slots are int32
		return nil, fmt.Errorf("pagecache: write of %d pages", n)
	}
	if lpn > math.MaxInt64-int64(n) {
		return nil, fmt.Errorf("%w: %d+%d overflows", ErrBadLPN, lpn, n)
	}
	for i := 0; i < n; i++ {
		p := lpn + int64(i)
		s, ok := c.index.Get(p)
		switch {
		case !ok:
			s = c.alloc(p)
		case c.isGhost(s):
			c.ghosts-- // back in its old slot: not an overwrite
		default:
			c.stats.Overwrites++
			c.unlink(s)
		}
		c.slab[s].last = now
		c.pushBack(s)
		c.stats.WrittenPages++
	}
	if over := c.DirtyPageCount() - c.cfg.CapacityPages; over > 0 {
		reclaimed = c.popOldest(c.flushBuf[:0], allAges, over)
		c.flushBuf = reclaimed
		c.stats.PressureFlushes += int64(len(reclaimed))
		c.stats.FlushedPages += int64(len(reclaimed))
	}
	return reclaimed, nil
}

// Flush runs the flusher thread at time now (a multiple of FlusherPeriod in
// normal operation) and returns the LPNs written back, oldest first (ties
// by LPN): every page older than τ_expire, plus — if the dirty set still
// exceeds τ_flush — the oldest remaining pages down to the threshold. The
// returned slice shares the cache's scratch buffer and is valid only until
// the next Write or Flush call.
func (c *Cache) Flush(now time.Duration) []int64 {
	out := c.popOldest(c.flushBuf[:0], now-c.cfg.Expire, math.MaxInt)
	c.stats.ExpiredFlushes += int64(len(out))
	if over := c.DirtyPageCount() - c.cfg.FlushLimit(); over > 0 {
		out = c.popOldest(out, allAges, over)
		c.stats.PressureFlushes += int64(over)
	}
	c.stats.FlushedPages += int64(len(out))
	c.flushBuf = out
	return out
}

// popOldest removes up to max dirty pages last written at or before cutoff
// from the head of the age list and appends their LPNs to dst in
// (LastUpdate, LPN) order. It works one run of equal timestamps at a time,
// LPN-sorting each; a run cut short by max gives up its lowest LPNs.
func (c *Cache) popOldest(dst []int64, cutoff time.Duration, max int) []int64 {
	c.rethread()
	for max > 0 && c.head != noSlot && c.slab[c.head].last <= cutoff {
		run := c.runBuf[:0]
		for s, t := c.head, c.slab[c.head].last; s != noSlot && c.slab[s].last == t; s = c.slab[s].next {
			run = append(run, tie{c.slab[s].lpn, s})
		}
		c.runBuf = run
		slices.SortFunc(run, func(a, b tie) int { return cmp.Compare(a.lpn, b.lpn) })
		if len(run) > max {
			run = run[:max]
		}
		for _, e := range run {
			dst = append(dst, e.lpn)
			c.remove(e.slot)
		}
		max -= len(run)
	}
	return dst
}

// DirtyPages returns a snapshot of all dirty pages, sorted oldest first
// (ties by LPN).
func (c *Cache) DirtyPages() []DirtyPage {
	c.rethread()
	out := make([]DirtyPage, 0, c.DirtyPageCount())
	for s := c.head; s != noSlot; s = c.slab[s].next {
		out = append(out, DirtyPage{LPN: c.slab[s].lpn, LastUpdate: c.slab[s].last})
	}
	for start, end := 0, 0; start < len(out); start = end {
		for end = start + 1; end < len(out) && out[end].LastUpdate == out[start].LastUpdate; end++ {
		}
		slices.SortFunc(out[start:end], func(a, b DirtyPage) int { return cmp.Compare(a.LPN, b.LPN) })
	}
	return out
}

// ScanDirty is the pass the buffered-write predictor makes right after the
// flusher ran at now. It counts into due, one entry per future flusher
// wake-up, the dirty pages that wake-up will find expired — due[i] those last
// written in (now−τ_expire+i·p, now−τ_expire+(i+1)·p], the first entry open
// below and the last above — and returns the cache's turnover since the
// previous scan: joined, the pages dirty now that were not then, and left,
// the pages dirty then that are not now. A page that left and came back in
// between is in neither. Both slices share the cache's scratch buffers and
// are valid only until the next scan.
//
// The walk is oldest first, so the interval a page falls due in only ever
// advances: one comparison per page, against a threshold that moves up
// len(due)−1 times in the whole pass.
//
// The scan also keeps the first-seen times behind the hot-page filter: a
// page's first-seen time is the LastUpdate it had at the first scan of its
// current run of consecutive scans that found it dirty. What happens between
// two scans does not break a run — a page flushed, reclaimed or dropped and
// written again before the next scan keeps its first-seen time. With
// hotFilter set, a page first seen more than τ_expire ago is left out of
// due: it is being rewritten faster than it can expire. The cache keeps one
// such track, so one scanner per cache.
func (c *Cache) ScanDirty(now time.Duration, hotFilter bool, due []int64) (joined, left []int64) {
	if c.firstSeen == nil {
		c.firstSeen = make([]time.Duration, len(c.slab), cap(c.slab))
		for i := range c.firstSeen {
			c.firstSeen[i] = unseen
		}
	}
	c.rethread()
	clear(due)
	joined = c.joinBuf[:0]
	expire, period := c.cfg.Expire, c.cfg.FlusherPeriod
	i, limit := 0, now-expire+period
	for s := c.head; s != noSlot; s = c.slab[s].next {
		e := &c.slab[s]
		for i < len(due)-1 && e.last > limit {
			i++
			limit += period
		}
		if first := c.firstSeen[s]; first == unseen {
			c.firstSeen[s] = e.last
			joined = append(joined, e.lpn)
		} else if hotFilter && now-first > expire {
			continue
		}
		due[i]++
	}
	c.joinBuf = joined

	left = c.leftBuf[:0]
	for _, s := range c.ghostLog {
		e := &c.slab[s]
		if e.prev != ghostSlot {
			continue // revived, or logged twice and freed just now
		}
		left = append(left, e.lpn)
		c.index.Delete(e.lpn)
		c.firstSeen[s] = unseen
		e.prev, e.next = noSlot, c.free
		c.free = s
	}
	c.leftBuf = left
	c.ghostLog, c.ghosts = c.ghostLog[:0], 0
	return joined, left
}

// IsDirty reports whether lpn currently has a dirty copy in the cache —
// reads of such pages are served from RAM without touching the device.
func (c *Cache) IsDirty(lpn int64) bool {
	s, ok := c.index.Get(lpn)
	return ok && !c.isGhost(s)
}

// Drop discards a dirty page without writing it back (e.g. the file was
// deleted). It reports whether the page was dirty.
func (c *Cache) Drop(lpn int64) bool {
	s, ok := c.index.Get(lpn)
	if !ok || c.isGhost(s) {
		return false
	}
	c.remove(s)
	return true
}

// alloc takes a slot for a newly dirty lpn; the caller links it.
func (c *Cache) alloc(lpn int64) int32 {
	s := c.free
	if s != noSlot {
		c.free = c.slab[s].next
	} else {
		s = int32(len(c.slab))
		c.slab = append(c.slab, entry{})
		if c.firstSeen != nil {
			c.firstSeen = append(c.firstSeen, unseen)
		}
	}
	c.slab[s].lpn = lpn
	c.index.Set(lpn, s)
	return s
}

// remove takes the page in slot s out of the cache. A page no scan has seen
// gives up its slot and its index entry; one a scan has seen becomes a ghost.
func (c *Cache) remove(s int32) {
	c.unlink(s)
	if c.firstSeen != nil && c.firstSeen[s] != unseen {
		c.slab[s].prev = ghostSlot
		c.ghostLog = append(c.ghostLog, s)
		c.ghosts++
		return
	}
	c.index.Delete(c.slab[s].lpn)
	c.slab[s].next = c.free
	c.free = s
}

func (c *Cache) unlink(s int32) {
	e := &c.slab[s]
	if e.prev != noSlot {
		c.slab[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != noSlot {
		c.slab[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *Cache) pushBack(s int32) {
	e := &c.slab[s]
	e.prev, e.next = c.tail, noSlot
	if c.tail != noSlot {
		c.reorder = c.reorder || c.slab[c.tail].last > e.last
		c.slab[c.tail].next = s
	} else {
		c.head = s
	}
	c.tail = s
}

// rethread restores age order after a backdated write by sorting the whole
// list by (LastUpdate, LPN) once.
func (c *Cache) rethread() {
	if !c.reorder {
		return
	}
	slots := make([]int32, 0, c.DirtyPageCount())
	for s := c.head; s != noSlot; s = c.slab[s].next {
		slots = append(slots, s)
	}
	slices.SortFunc(slots, func(a, b int32) int {
		ea, eb := &c.slab[a], &c.slab[b]
		return cmp.Or(cmp.Compare(ea.last, eb.last), cmp.Compare(ea.lpn, eb.lpn))
	})
	c.head, c.tail = noSlot, noSlot
	for _, s := range slots {
		c.pushBack(s)
	}
	c.reorder = false
}

// CheckConsistency audits the cache's internal structure: the index
// describes exactly the slots on the age list plus the ghosts, list links
// agree in both directions, ages never decrease along the list unless a
// re-thread is pending, every ghost is a page a scan has seen that the next
// scan will find in the log, and the free list holds exactly the slots that
// are neither.
func (c *Cache) CheckConsistency() error {
	visited := make([]bool, len(c.slab))
	n, prev := 0, noSlot
	for s := c.head; s != noSlot; prev, s = s, c.slab[s].next {
		if s < 0 || int(s) >= len(c.slab) || visited[s] {
			return fmt.Errorf("pagecache: age list revisits or leaves the slab at slot %d", s)
		}
		visited[s] = true
		n++
		e := c.slab[s]
		if e.prev != prev {
			return fmt.Errorf("pagecache: slot %d prev = %d, want %d", s, e.prev, prev)
		}
		if got, ok := c.index.Get(e.lpn); !ok || got != s {
			return fmt.Errorf("pagecache: slot %d holds lpn %d, index says slot %d (present %v)", s, e.lpn, got, ok)
		}
		if prev != noSlot && !c.reorder && c.slab[prev].last > e.last {
			return fmt.Errorf("pagecache: age order broken at slot %d (%v after %v) with no re-thread pending", s, e.last, c.slab[prev].last)
		}
	}
	if c.tail != prev {
		return fmt.Errorf("pagecache: tail = %d, list ends at %d", c.tail, prev)
	}
	if c.firstSeen != nil && len(c.firstSeen) != len(c.slab) {
		return fmt.Errorf("pagecache: first-seen track covers %d of %d slots", len(c.firstSeen), len(c.slab))
	}
	ghosts := 0
	for i, e := range c.slab {
		s := int32(i)
		if visited[s] || e.prev != ghostSlot {
			continue
		}
		visited[s] = true
		ghosts++
		if got, ok := c.index.Get(e.lpn); !ok || got != s {
			return fmt.Errorf("pagecache: ghost slot %d holds lpn %d, index says slot %d (present %v)", s, e.lpn, got, ok)
		}
		if c.firstSeen == nil || c.firstSeen[s] == unseen {
			return fmt.Errorf("pagecache: ghost slot %d (lpn %d) has no first-seen time to keep", s, e.lpn)
		}
		if !slices.Contains(c.ghostLog, s) {
			return fmt.Errorf("pagecache: ghost slot %d (lpn %d) is not in the log the next scan sweeps", s, e.lpn)
		}
	}
	if ghosts != c.ghosts {
		return fmt.Errorf("pagecache: %d ghost slots, counter says %d", ghosts, c.ghosts)
	}
	if n+ghosts != c.index.Len() {
		return fmt.Errorf("pagecache: age list holds %d pages and %d are ghosts, index %d", n, ghosts, c.index.Len())
	}
	n += ghosts
	for s := c.free; s != noSlot; s = c.slab[s].next {
		if s < 0 || int(s) >= len(c.slab) || visited[s] {
			return fmt.Errorf("pagecache: free list reaches live, ghost or foreign slot %d", s)
		}
		visited[s] = true
		n++
	}
	if n != len(c.slab) {
		return fmt.Errorf("pagecache: %d of %d slots are neither dirty, ghost nor free", len(c.slab)-n, len(c.slab))
	}
	return nil
}
