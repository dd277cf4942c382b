package array

import (
	"fmt"
	"time"

	"jitgc/internal/trace"
)

// Redundancy selects how stripes are protected against a member failure.
type Redundancy string

// Redundancy schemes.
const (
	// RedundancyNone stripes without protection (RAID-0): requests
	// touching a degraded member fail fast until a spare rebuild salvages
	// the shard.
	RedundancyNone Redundancy = "none"
	// RedundancyMirror keeps a second copy of every device's shard on the
	// next member (chained declustering): device d's primary region is
	// mirrored into the upper half of device (d+1) mod N. Capacity halves;
	// a degraded member's reads and writes are served by its neighbor.
	RedundancyMirror Redundancy = "mirror"
	// RedundancyParity rotates one parity unit per stripe row across the
	// members (RAID-5 style): row r's parity lives on device r mod N, data
	// units on the others. Capacity is (N-1)/N; a degraded member's reads
	// reconstruct from the row's survivors.
	RedundancyParity Redundancy = "parity"
)

// ParseRedundancy converts a flag string into a Redundancy.
func ParseRedundancy(s string) (Redundancy, error) {
	switch Redundancy(s) {
	case RedundancyNone, RedundancyMirror, RedundancyParity:
		return Redundancy(s), nil
	}
	return "", fmt.Errorf("array: unknown redundancy %q (want %q, %q or %q)",
		s, RedundancyNone, RedundancyMirror, RedundancyParity)
}

// mirrorOf returns the member holding device d's mirror copy.
func (a *Array) mirrorOf(d int) int { return (d + 1) % a.cfg.Devices }

// prevOf returns the member whose primary shard device d mirrors.
func (a *Array) prevOf(d int) int { return (d - 1 + a.cfg.Devices) % a.cfg.Devices }

// parityDev returns the member holding row's parity unit.
func (a *Array) parityDev(row int64) int { return int(row % int64(a.cfg.Devices)) }

// canServeDegraded reports whether requests touching degraded member i can
// be served from redundancy instead of failing fast. Mirror needs the
// neighbor copy alive; parity needs every other row member (single-failure
// tolerance); unprotected stripes cannot be served at all.
func (a *Array) canServeDegraded(i int) bool {
	switch a.cfg.Redundancy {
	case RedundancyMirror:
		return a.degraded[a.mirrorOf(i)] == nil
	case RedundancyParity:
		for j := 0; j < a.cfg.Devices; j++ {
			if j != i && a.degraded[j] != nil {
				return false
			}
		}
		return true
	}
	return false
}

// issueExtent services one device-local extent of an array request on
// member i, standing in redundancy for degraded members and degrading
// members whose device fails mid-flight. It returns the extent's
// completion time and whether it was served.
func (a *Array) issueExtent(r trace.Request, i int, e extent) (time.Duration, bool) {
	switch a.cfg.Redundancy {
	case RedundancyMirror:
		return a.issueMirrored(r, i, e)
	case RedundancyParity:
		return a.issueParity(r, i, e)
	}
	// Unprotected: the extent lives on its primary alone.
	if a.degraded[i] != nil {
		return 0, false
	}
	c, err := a.step(r, i, e.lpn, e.pages)
	if err != nil {
		a.degrade(r.Time, i, err)
		return 0, false
	}
	return c, true
}

// step forwards one segment of an array request to member dev at a
// device-local location. A segment is never longer than r, so its length
// fits Request.Pages.
func (a *Array) step(r trace.Request, dev int, lpn int64, pages int) (time.Duration, error) {
	return a.devs[dev].StepRequest(trace.Request{
		Time: r.Time, Kind: r.Kind, LPN: lpn, Pages: int32(pages),
	})
}

// issueMirrored services one extent under chained-declustering mirroring:
// writes and trims go to both copies (primary at e.lpn on member i, mirror
// at perDevPages+e.lpn on the neighbor), reads to the primary with the
// mirror standing in when the primary is degraded. The extent is served as
// long as at least one copy lands; a degraded copy under rebuild is kept
// fresh by writing through to its spare.
func (a *Array) issueMirrored(r trace.Request, i int, e extent) (time.Duration, bool) {
	m := a.mirrorOf(i)
	ml := a.perDevPages + e.lpn

	if r.Kind == trace.Read {
		if a.degraded[i] == nil {
			c, err := a.step(r, i, e.lpn, e.pages)
			if err == nil {
				return c, true
			}
			a.degrade(r.Time, i, err)
		}
		if a.degraded[m] != nil {
			return 0, false
		}
		c, err := a.step(r, m, ml, e.pages)
		if err != nil {
			a.degrade(r.Time, m, err)
			return 0, false
		}
		a.degradedReads++
		return c, true
	}

	// Writes and trims mutate both copies.
	wasDegraded := a.degraded[i] != nil || a.degraded[m] != nil
	var completion time.Duration
	served := false
	if a.degraded[i] == nil {
		if c, err := a.step(r, i, e.lpn, e.pages); err != nil {
			a.degrade(r.Time, i, err)
		} else {
			served = true
			completion = c
		}
	}
	if a.degraded[m] == nil {
		if c, err := a.step(r, m, ml, e.pages); err != nil {
			a.degrade(r.Time, m, err)
		} else {
			served = true
			if c > completion {
				completion = c
			}
		}
	}
	if !served {
		return 0, false
	}
	// Keep a rebuilding spare's shard from going stale: the copy the dead
	// member would have taken is applied to its replacement directly.
	if a.degraded[i] != nil {
		a.mutateThrough(r, i, e.lpn, e.pages)
	}
	if a.degraded[m] != nil {
		a.mutateThrough(r, m, ml, e.pages)
	}
	if wasDegraded && r.Kind != trace.Trim {
		a.degradedWrites++
	}
	return completion, true
}

// issueParity services one extent under rotated parity. Consecutive local
// stripes on one device belong to different rows with different parity
// members, so the extent is processed in per-row chunks.
func (a *Array) issueParity(r trace.Request, i int, e extent) (time.Duration, bool) {
	stripe := a.cfg.StripePages
	var completion time.Duration
	l, remaining := e.lpn, e.pages
	for remaining > 0 {
		run := int(stripe - l%stripe)
		if run > remaining {
			run = remaining
		}
		c, ok := a.issueParityChunk(r, i, l/stripe, l, run)
		if !ok {
			return 0, false
		}
		if c > completion {
			completion = c
		}
		l += int64(run)
		remaining -= run
	}
	return completion, true
}

// issueParityChunk services the part of an extent that lies inside one
// stripe row: reads prefer the primary and reconstruct from the row's
// survivors when it is degraded; writes update the data unit and the row's
// parity unit (same device-local location on the parity member); trims
// drop only the data mapping — the stale parity unit is overwritten by the
// row's next write. Degraded members under rebuild receive their mutations
// through the spare.
func (a *Array) issueParityChunk(r trace.Request, i int, row, local int64, pages int) (time.Duration, bool) {
	p := a.parityDev(row)
	switch r.Kind {
	case trace.Read:
		if a.degraded[i] == nil {
			c, err := a.step(r, i, local, pages)
			if err == nil {
				return c, true
			}
			a.degrade(r.Time, i, err)
		}
		// Reconstruct: read the same locals on every other row member.
		var completion time.Duration
		for j := 0; j < a.cfg.Devices; j++ {
			if j == i {
				continue
			}
			if a.degraded[j] != nil {
				return 0, false
			}
			c, err := a.step(r, j, local, pages)
			if err != nil {
				a.degrade(r.Time, j, err)
				return 0, false
			}
			if c > completion {
				completion = c
			}
		}
		a.degradedReads++
		return completion, true

	case trace.Trim:
		if a.degraded[i] == nil {
			c, err := a.step(r, i, local, pages)
			if err != nil {
				a.degrade(r.Time, i, err)
				return 0, false
			}
			return c, true
		}
		a.mutateThrough(r, i, local, pages)
		return r.Time, true

	default: // DirectWrite, BufferedWrite
		var completion time.Duration
		dataOK := false
		if a.degraded[i] == nil {
			if c, err := a.step(r, i, local, pages); err != nil {
				a.degrade(r.Time, i, err)
			} else {
				dataOK = true
				completion = c
			}
		}
		parityOK := false
		if a.degraded[p] == nil {
			if c, err := a.step(r, p, local, pages); err != nil {
				a.degrade(r.Time, p, err)
			} else {
				parityOK = true
				if c > completion {
					completion = c
				}
			}
		}
		if !dataOK {
			// The new data is carried by the parity update (and written
			// through to a rebuilding spare); without either, the write has
			// nowhere durable to land.
			a.mutateThrough(r, i, local, pages)
			a.degradedWrites++
			if !parityOK && a.rebuildFor(i) == nil {
				return 0, false
			}
		}
		return completion, true
	}
}
