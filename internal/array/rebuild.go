package array

import (
	"time"

	"jitgc/internal/sim"
	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
)

// rebuildState tracks one spare being rebuilt into a degraded slot. The
// migration runs at write-back ticks under a per-tick page budget, so
// rebuild I/O interleaves with host traffic and background GC on the
// shared device timelines instead of monopolizing them.
type rebuildState struct {
	slot   int            // degraded member being replaced
	spare  *sim.Simulator // replacement device receiving the shard
	cursor int64          // next device-local page to consider
	limit  int64          // device-local pages the shard spans
	pages  int64          // pages actually migrated (copies + write-throughs)
	start  time.Duration  // tick the spare was attached
}

// rebuildFor returns the active rebuild replacing slot, or nil.
func (a *Array) rebuildFor(slot int) *rebuildState {
	for _, rb := range a.rebuilds {
		if rb.slot == slot {
			return rb
		}
	}
	return nil
}

// startRebuild attaches a spare to freshly degraded slot dev, if the pool
// has one. The spare starts empty; migration proceeds at write-back ticks.
func (a *Array) startRebuild(t time.Duration, dev int) {
	if len(a.spares) == 0 || a.rebuildFor(dev) != nil {
		return
	}
	spare := a.spares[0]
	a.spares = a.spares[1:]
	if err := spare.Begin(); err != nil {
		// An unusable spare is dropped; the slot stays degraded.
		return
	}
	limit := a.perDevPages
	if a.cfg.Redundancy == RedundancyMirror {
		// A mirrored member carries its own primary shard plus the
		// neighbor's mirror copy; both regions are rebuilt.
		limit = 2 * a.perDevPages
	}
	a.rebuilds = append(a.rebuilds, &rebuildState{
		slot: dev, spare: spare, limit: limit, start: t,
	})
	a.tr.Rebuild(t, dev, telemetry.ActionStart, 0, 0)
}

// abortRebuild abandons rb: the slot stays degraded and the partially
// written spare is discarded.
func (a *Array) abortRebuild(t time.Duration, rb *rebuildState) {
	for i, x := range a.rebuilds {
		if x == rb {
			a.rebuilds = append(a.rebuilds[:i], a.rebuilds[i+1:]...)
			break
		}
	}
	a.tr.Rebuild(t, rb.slot, telemetry.ActionAbort, rb.pages, t-rb.start)
}

// stepRebuilds advances every active rebuild by up to the per-tick page
// budget each, then runs the spares' own write-back machinery so their GC
// keeps pace with the migration writes.
func (a *Array) stepRebuilds(t time.Duration) {
	if len(a.rebuilds) == 0 {
		return
	}
	for _, rb := range append([]*rebuildState(nil), a.rebuilds...) {
		done, ok := a.stepRebuild(t, rb)
		if !ok {
			a.abortRebuild(t, rb)
			continue
		}
		if done {
			a.finishRebuild(t, rb)
			continue
		}
		if err := rb.spare.Tick(t); err != nil {
			a.abortRebuild(t, rb)
		}
	}
}

// stepRebuild migrates up to the per-tick budget of mapped pages onto
// rb.spare and reports whether the shard is fully covered (done) and
// whether the rebuild is still viable (ok).
func (a *Array) stepRebuild(t time.Duration, rb *rebuildState) (done, ok bool) {
	budget := a.cfg.RebuildPagesPerTick
	for budget > 0 && rb.cursor < rb.limit {
		l := rb.cursor
		rb.cursor++
		mapped, ok := a.rebuildSourceMapped(rb, l)
		if !ok {
			return false, false
		}
		// Locals the host already wrote through to the spare are fresher
		// than any copy the sources could provide.
		if !mapped || rb.spare.FTL().MappedPPN(l) != -1 {
			continue
		}
		if !a.rebuildCopy(t, rb, l) {
			return false, false
		}
		rb.pages++
		a.rebuildPages++
		budget--
	}
	return rb.cursor >= rb.limit, true
}

// rebuildSourceMapped reports whether device-local page l of the degraded
// shard holds data that must be migrated, judged from the rebuild's source
// of truth (the mirror copy, the dead member's own map for salvage and
// parity, including pages still dirty in a cache).
func (a *Array) rebuildSourceMapped(rb *rebuildState, l int64) (mapped, ok bool) {
	switch a.cfg.Redundancy {
	case RedundancyMirror:
		src, srcL := a.mirrorSource(rb.slot, l)
		if a.degraded[src] != nil {
			return false, false // double failure: the copy is gone
		}
		return pageHeld(a.devs[src], srcL), true
	default:
		// Parity reconstruction and unprotected salvage both key off the
		// dead member's own mapping — retired blocks stay readable, so the
		// map survives the failure that degraded the device.
		return pageHeld(a.devs[rb.slot], l), true
	}
}

// mirrorSource returns the member and device-local page holding the
// surviving copy of degraded slot's local page l: the neighbor's mirror
// region for the primary shard, the previous member's primary for the
// mirror region.
func (a *Array) mirrorSource(slot int, l int64) (int, int64) {
	if l < a.perDevPages {
		return a.mirrorOf(slot), a.perDevPages + l
	}
	return a.prevOf(slot), l - a.perDevPages
}

// pageHeld reports whether device-local page l is live on s, in the FTL
// map or still dirty in the page cache.
func pageHeld(s *sim.Simulator, l int64) bool {
	return s.FTL().MappedPPN(l) != -1 || s.Cache().IsDirty(l)
}

// rebuildCopy migrates one device-local page onto rb.spare, reading the
// redundancy sources (or the dead member itself for salvage) and writing
// the spare, all on the shared device timelines.
func (a *Array) rebuildCopy(t time.Duration, rb *rebuildState, l int64) bool {
	var c time.Duration
	switch a.cfg.Redundancy {
	case RedundancyMirror:
		src, srcL := a.mirrorSource(rb.slot, l)
		rc, err := a.devs[src].RebuildRead(t, srcL, 1)
		if err != nil {
			a.degrade(t, src, err)
			return false
		}
		c = rc
	case RedundancyParity:
		// Reconstruct: read the same local on every other row member.
		for j := 0; j < a.cfg.Devices; j++ {
			if j == rb.slot {
				continue
			}
			if a.degraded[j] != nil {
				return false
			}
			if !pageHeld(a.devs[j], l) {
				continue
			}
			rc, err := a.devs[j].RebuildRead(t, l, 1)
			if err != nil {
				a.degrade(t, j, err)
				return false
			}
			if rc > c {
				c = rc
			}
		}
	default:
		// Salvage: the dead member's reads still work (only its write path
		// failed), so the shard is read back from the device itself.
		rc, err := a.devs[rb.slot].RebuildRead(t, l, 1)
		if err != nil {
			return false
		}
		c = rc
	}
	if c < t {
		c = t
	}
	if _, err := rb.spare.RebuildWrite(c, l, 1); err != nil {
		return false
	}
	return true
}

// finishRebuild swaps the fully rebuilt spare into its slot: the old
// member's record is archived, the slot leaves degraded mode, and requests
// route to the replacement from the next event on.
func (a *Array) finishRebuild(t time.Duration, rb *rebuildState) {
	old := a.devs[rb.slot]
	a.replaced = append(a.replaced, old.Results())
	a.replacedSlots = append(a.replacedSlots, rb.slot)
	a.devs[rb.slot] = rb.spare
	a.degraded[rb.slot] = nil
	a.lastFree[rb.slot] = -1
	a.burnEMA[rb.slot] = 0
	a.rebuilt = append(a.rebuilt, rb.slot)
	a.rebuildTime += t - rb.start
	for i, x := range a.rebuilds {
		if x == rb {
			a.rebuilds = append(a.rebuilds[:i], a.rebuilds[i+1:]...)
			break
		}
	}
	a.tr.Rebuild(t, rb.slot, telemetry.ActionEnd, rb.pages, t-rb.start)
}

// mutateThrough applies a write or trim that targeted degraded slot to its
// rebuilding spare, keeping the migrated shard fresh. No-op without an
// active rebuild; a spare that fails here aborts its rebuild.
func (a *Array) mutateThrough(r trace.Request, slot int, local int64, pages int) {
	rb := a.rebuildFor(slot)
	if rb == nil {
		return
	}
	if r.Kind == trace.Trim {
		if err := rb.spare.RebuildTrim(r.Time, local, pages); err != nil {
			a.abortRebuild(r.Time, rb)
		}
		return
	}
	if _, err := rb.spare.RebuildWrite(r.Time, local, pages); err != nil {
		a.abortRebuild(r.Time, rb)
		return
	}
	rb.pages += int64(pages)
	a.rebuildPages += int64(pages)
}
