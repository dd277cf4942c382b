package workload

import (
	"fmt"
	"math"
	"time"

	"jitgc/internal/trace"
)

// TRIM-rich host profiles. The six paper benchmarks barely discard (only
// Postmark batches an occasional TRIM), so they cannot exercise the
// Frankie et al. regime where host discards inflate the device's effective
// over-provisioning. The two generators here close that gap:
//
//   - FileChurn models a filesystem mounted with discard-on-unlink: files
//     are created and deleted at a configurable churn rate, every unlink
//     reaches the device as a TRIM of the file's whole extent, and the
//     steady-state trimmed share of the working set converges to the
//     configured ChurnRate (a statistical test pins it within ±3 points).
//   - LogStructured models an SSDFS-style append-only host: writes fill
//     fixed-size segments strictly sequentially, the host cleaner TRIMs
//     whole cold segments before the log head reuses them, and no logical
//     page is ever overwritten in place. The device sees sequential
//     programs plus whole-segment invalidations — the best case a host can
//     present to device GC.

// Profile returns the named TRIM-rich host profile ("churn" or "log") with
// the given steady-state trimmed share of the working set. It is the
// -host-profile counterpart of ByName.
func Profile(name string, trimRate float64) (Generator, error) {
	switch name {
	case "churn":
		return NewFileChurn(trimRate), nil
	case "log":
		return NewLogStructured(trimRate), nil
	}
	return nil, fmt.Errorf("workload: unknown host profile %q (have churn, log)", name)
}

// FileChurn is the discard-on-unlink file churn generator. Its shape is
// fixed and mail-store-like — small lognormal files, mostly buffered
// writes, a fifth of operations reads — so ChurnRate is its one knob.
type FileChurn struct {
	// ChurnRate is the target steady-state trimmed fraction of the touched
	// working set in [0,1): deletions TRIM whole file extents on unlink and
	// creations refill from the trimmed pool, so the discarded share hovers
	// at this value. 0 degenerates to create/overwrite churn with no TRIMs
	// (unlinked extents are silently reused, as on a filesystem mounted
	// without discard).
	ChurnRate float64
}

// FileChurn's fixed shape.
const (
	// churnMeanFilePages centers the lognormal file-size distribution;
	// churnSizeSigma is its log-domain spread. Sizes are clamped to
	// [churnMinFilePages, churnMaxFilePages].
	churnMeanFilePages = 8
	churnSizeSigma     = 0.6
	churnMinFilePages  = 2
	churnMaxFilePages  = 32
	// churnReadFraction is the share of operations that read a live file.
	churnReadFraction = 0.20
	// churnDirectTarget is the device-level direct-write volume share the
	// buffered/direct balancer aims for.
	churnDirectTarget = 0.15
)

// NewFileChurn returns the file-churn profile with a steady-state trimmed
// share of rate.
func NewFileChurn(rate float64) FileChurn { return FileChurn{ChurnRate: rate} }

// Name implements Generator.
func (FileChurn) Name() string { return "FileChurn" }

// MinWorkingSetPages implements Generator: the metadata journal plus room
// for four of the largest files.
func (FileChurn) MinWorkingSetPages() int64 {
	return 4*churnMaxFilePages + churnJournalPages
}

func (c FileChurn) validate(p Params) error {
	if !(c.ChurnRate >= 0 && c.ChurnRate < 1) {
		return fmt.Errorf("workload: churn rate %v outside [0,1)", c.ChurnRate)
	}
	return validate(c, p)
}

// churnJournalPages is the circular metadata-journal region carved from the
// front of the working set: every unlink commits one direct journal write,
// the way a journaling filesystem persists the unlink record even when the
// data blocks are discarded.
const churnJournalPages = int64(32)

// churnExtent is one live file or free (trimmed/reusable) extent.
type churnExtent struct {
	lpn   int64
	pages int
}

// Generate implements Generator.
func (c FileChurn) Generate(p Params) ([]trace.Request, error) {
	return c.generate(p, &holeList{})
}

// generate runs the churn over free, the (empty) pool its unlinked extents go
// to; tests pass the linear-scan oracle.
func (c FileChurn) generate(p Params, free holePool) ([]trace.Request, error) {
	if err := c.validate(p); err != nil {
		return nil, err
	}
	e := newEngine(p, churnDirectTarget)
	clock := &burstClock{
		lenLo: 2000, lenHi: 4000,
		intraLo: 200 * time.Microsecond, intraHi: 500 * time.Microsecond,
		idleLo: 3 * time.Second, idleHi: 8 * time.Second,
	}

	var (
		live       []churnExtent
		livePages  int64
		freePages  int64 // pages currently trimmed (or reclaimed, when ChurnRate = 0)
		cursor     = churnJournalPages
		journalPtr = int64(0)
	)

	fileSize := func() int {
		n := int(math.Round(math.Exp(math.Log(churnMeanFilePages) + churnSizeSigma*e.r.NormFloat64())))
		return min(max(n, churnMinFilePages), churnMaxFilePages)
	}

	// allocate carves an extent of up to pages: first-fit from the free
	// pool (splitting larger holes), then fresh space at the cursor, and as
	// a last resort it evicts a random live file and reuses its slot (the
	// no-discard overwrite path that keeps ChurnRate = 0 meaningful).
	allocate := func(pages int) (churnExtent, bool) {
		if ext, ok := free.alloc(pages); ok {
			freePages -= int64(pages)
			return ext, true
		}
		if cursor+int64(pages) <= p.WorkingSetPages {
			ext := churnExtent{lpn: cursor, pages: pages}
			cursor += int64(pages)
			return ext, true
		}
		if ext, ok := free.allocLargest(); ok { // shrink into the largest hole
			freePages -= int64(ext.pages)
			return ext, true
		}
		if len(live) > 0 { // overwrite: silently reuse a live file's slot
			j := e.r.Intn(len(live))
			ext := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			livePages -= int64(ext.pages)
			return ext, true
		}
		return churnExtent{}, false
	}

	create := func() {
		ext, ok := allocate(fileSize())
		if !ok {
			return
		}
		live = append(live, ext)
		livePages += int64(ext.pages)
		e.emitWrite(ext.lpn, ext.pages)
	}

	unlink := func() {
		j := e.r.Intn(len(live))
		ext := live[j]
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		livePages -= int64(ext.pages)
		free.push(ext)
		freePages += int64(ext.pages)
		if c.ChurnRate > 0 {
			// discard-on-unlink: the whole extent reaches the device as TRIM.
			e.emitTrim(ext.lpn, ext.pages)
			e.think(0)
		}
		// The unlink record itself is journaled with a synchronous write.
		e.emitWriteKind(trace.DirectWrite, journalPtr, 1)
		journalPtr = (journalPtr + 1) % churnJournalPages
	}

	for len(e.reqs) < p.Ops {
		e.think(clock.next(e))
		if len(live) > 0 && e.r.Float64() < churnReadFraction {
			f := live[e.r.Intn(len(live))]
			e.emitRead(f.lpn, f.pages)
			continue
		}
		// Bang-bang churn control: delete whenever the trimmed share of the
		// touched (live + trimmed) pages is below ChurnRate, create
		// otherwise. The steady state hovers within one file of the target.
		if len(live) > 0 && float64(freePages) < c.ChurnRate*float64(freePages+livePages) {
			unlink()
		} else {
			create()
		}
	}
	return e.reqs, nil
}

// LogStructured is the SSDFS-style append-only log host profile. Its
// shape is fixed — 256-page segments, 4–32-page appends, mostly buffered —
// so FreeTarget is its one knob.
type LogStructured struct {
	// FreeTarget is the share of segments the host cleaner keeps free
	// (trimmed or never written) ahead of the log head, in [0,1) — the
	// profile's TRIM-intensity knob and its steady-state trimmed share.
	FreeTarget float64
}

// LogStructured's fixed shape.
const (
	// logSegmentPages is the host log segment size; every TRIM the profile
	// emits covers exactly one whole segment.
	logSegmentPages = 256
	// logReadFraction is the share of operations that read from a live
	// segment.
	logReadFraction = 0.15
	// logDirectTarget is the device-level direct-write volume share (log
	// appends are mostly buffered and flushed in order).
	logDirectTarget = 0.10
	// logAppendLo/logAppendHi bound the pages appended per write operation.
	logAppendLo, logAppendHi = 4, 32
)

// NewLogStructured returns the append-only log profile keeping rate of its
// segments trimmed ahead of the head. A rate of 0 is clamped to one free
// segment's worth so the log can always turn over.
func NewLogStructured(rate float64) LogStructured { return LogStructured{FreeTarget: rate} }

// Name implements Generator.
func (LogStructured) Name() string { return "LogStructured" }

// MinWorkingSetPages implements Generator: four segments.
func (LogStructured) MinWorkingSetPages() int64 { return 4 * logSegmentPages }

func (l LogStructured) validate(p Params) error {
	if !(l.FreeTarget >= 0 && l.FreeTarget < 1) {
		return fmt.Errorf("workload: free-segment target %v outside [0,1)", l.FreeTarget)
	}
	return validate(l, p)
}

// Generate implements Generator.
func (l LogStructured) Generate(p Params) ([]trace.Request, error) {
	if err := l.validate(p); err != nil {
		return nil, err
	}
	e := newEngine(p, logDirectTarget)
	clock := &burstClock{
		lenLo: 3000, lenHi: 6000,
		intraLo: 150 * time.Microsecond, intraHi: 350 * time.Microsecond,
		idleLo: 2 * time.Second, idleHi: 6 * time.Second,
	}

	segments := p.WorkingSetPages / logSegmentPages
	// The cleaner keeps at least one segment free so the head always has a
	// fresh segment to turn into, whatever FreeTarget says.
	freeFloor := int64(float64(segments) * l.FreeTarget)
	if freeFloor < 1 {
		freeFloor = 1
	}

	var (
		head     = int64(0) // segment being appended to
		fill     = 0        // pages already written in the head segment
		tail     = int64(0) // oldest live segment
		liveSegs = int64(0) // fully or partially written, not yet trimmed
	)

	for len(e.reqs) < p.Ops {
		e.think(clock.next(e))
		if liveSegs > 0 && e.r.Float64() < logReadFraction {
			// Read a random extent from a random live segment.
			seg := (tail + int64(e.r.Int63n(liveSegs))) % segments
			off := int64(e.r.Intn(logSegmentPages))
			n := e.intRange(1, 8)
			lpn, n := clampExtent(seg*logSegmentPages+off, n, (seg+1)*logSegmentPages)
			e.emitRead(lpn, n)
			continue
		}
		if fill == 0 {
			// Opening a new head segment consumes one free segment. The
			// cleaner first TRIMs whole cold segments off the tail until the
			// free share (beyond the one being opened) is back at the floor,
			// so the head never lands on live data — every trimmed segment
			// is a fully written one behind the head. Emitted as single
			// whole-segment discards, never partial.
			for segments-liveSegs-1 < freeFloor && liveSegs > 0 {
				e.emitTrim(tail*logSegmentPages, logSegmentPages)
				e.think(0)
				tail = (tail + 1) % segments
				liveSegs--
			}
			liveSegs++
		}
		n := e.intRange(logAppendLo, logAppendHi)
		if n > logSegmentPages-fill {
			n = logSegmentPages - fill
		}
		e.emitWrite(head*logSegmentPages+int64(fill), n)
		fill += n
		if fill == logSegmentPages {
			head = (head + 1) % segments
			fill = 0
		}
	}
	return e.reqs, nil
}
