package pagecache

import (
	"sort"
	"time"
)

// refCache is the cache as it was before the age-ordered list: an unordered
// LPN → last-update map, fully sorted by (LastUpdate, LPN) wherever order is
// consumed. It is slow and obviously right, which is what an oracle is for:
// the differential sweep holds Cache to its returned slices (order
// included), Stats and DirtyPages.
type refCache struct {
	cfg   Config
	dirty map[int64]time.Duration
	stats Stats
}

func newRefCache(cfg Config) *refCache {
	return &refCache{cfg: cfg, dirty: make(map[int64]time.Duration)}
}

func (c *refCache) Write(now time.Duration, lpn int64, n int) []int64 {
	for i := 0; i < n; i++ {
		p := lpn + int64(i)
		if _, ok := c.dirty[p]; ok {
			c.stats.Overwrites++
		}
		c.dirty[p] = now
		c.stats.WrittenPages++
	}
	var reclaimed []int64
	if over := len(c.dirty) - c.cfg.CapacityPages; over > 0 {
		reclaimed = c.evictOldestInto(nil, over)
		c.stats.PressureFlushes += int64(len(reclaimed))
		c.stats.FlushedPages += int64(len(reclaimed))
	}
	return reclaimed
}

func (c *refCache) Flush(now time.Duration) []int64 {
	var expired []int64
	for lpn, last := range c.dirty {
		if now-last >= c.cfg.Expire {
			expired = append(expired, lpn)
		}
	}
	sort.Slice(expired, func(i, j int) bool {
		ti, tj := c.dirty[expired[i]], c.dirty[expired[j]]
		if ti != tj {
			return ti < tj
		}
		return expired[i] < expired[j]
	})
	for _, lpn := range expired {
		delete(c.dirty, lpn)
	}
	c.stats.ExpiredFlushes += int64(len(expired))
	out := expired

	limit := int(c.cfg.FlushRatio * float64(c.cfg.CapacityPages))
	if len(c.dirty) > limit {
		before := len(out)
		out = c.evictOldestInto(out, len(c.dirty)-limit)
		c.stats.PressureFlushes += int64(len(out) - before)
	}
	c.stats.FlushedPages += int64(len(out))
	return out
}

func (c *refCache) evictOldestInto(dst []int64, n int) []int64 {
	all := c.DirtyPages()
	if n > len(all) {
		n = len(all)
	}
	for _, pg := range all[:n] {
		dst = append(dst, pg.LPN)
		delete(c.dirty, pg.LPN)
	}
	return dst
}

func (c *refCache) DirtyPages() []DirtyPage {
	out := make([]DirtyPage, 0, len(c.dirty))
	for lpn, last := range c.dirty {
		out = append(out, DirtyPage{LPN: lpn, LastUpdate: last})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LastUpdate != out[j].LastUpdate {
			return out[i].LastUpdate < out[j].LastUpdate
		}
		return out[i].LPN < out[j].LPN
	})
	return out
}

func (c *refCache) Drop(lpn int64) bool {
	if _, ok := c.dirty[lpn]; !ok {
		return false
	}
	delete(c.dirty, lpn)
	return true
}
