package workload

import (
	"time"

	"jitgc/internal/trace"
)

// Postmark models a mail-server workload: small files created, appended,
// read and deleted at a high churn rate. Deleted file slots are reused
// immediately, so the same logical pages are rewritten while their previous
// contents still sit in NAND blocks — the overwrite locality that makes SIP
// filtering most effective here (Table 3: 20.6%, the paper's maximum).
// Direct writes (fsync-ed deliveries) are 18.3% of volume (Table 1).
type Postmark struct{}

// NewPostmark returns the Postmark generator.
func NewPostmark() Postmark { return Postmark{} }

// Name implements Generator.
func (Postmark) Name() string { return "Postmark" }

// postmarkFile is one live mail file: an extent of pages.
type postmarkFile struct {
	lpn   int64
	pages int
}

// MinWorkingSetPages implements Generator.
func (Postmark) MinWorkingSetPages() int64 { return 1 }

// Generate implements Generator.
func (g Postmark) Generate(p Params) ([]trace.Request, error) {
	if err := validate(g, p); err != nil {
		return nil, err
	}
	e := newEngine(p, 0.185) // calibrated: device-level direct share lands at Table 1’s 18.3%
	clock := &burstClock{
		lenLo: 2500, lenHi: 5000,
		intraLo: 200 * time.Microsecond, intraHi: 400 * time.Microsecond,
		idleLo: 4000 * time.Millisecond, idleHi: 9000 * time.Millisecond,
	}

	const maxFile = 8 // pages
	var (
		live     []postmarkFile
		freelist []postmarkFile
		cursor   int64
	)
	newExtent := func(pages int) postmarkFile {
		// Prefer reusing a freed slot (churn); otherwise carve fresh space.
		for i := len(freelist) - 1; i >= 0; i-- {
			if freelist[i].pages >= pages {
				f := freelist[i]
				freelist = append(freelist[:i], freelist[i+1:]...)
				return postmarkFile{lpn: f.lpn, pages: pages}
			}
		}
		if cursor+int64(pages) > p.WorkingSetPages {
			cursor = 0
		}
		f := postmarkFile{lpn: cursor, pages: pages}
		cursor += int64(pages)
		return f
	}

	for len(e.reqs) < p.Ops {
		e.think(clock.next(e))
		switch op := e.r.Float64(); {
		case op < 0.40: // create
			f := newExtent(e.intRange(2, maxFile))
			live = append(live, f)
			e.emitWrite(f.lpn, f.pages)
		case op < 0.55 && len(live) > 0: // append
			j := e.r.Intn(len(live))
			f := live[j]
			grow := e.intRange(1, 4)
			lpn, grow := clampExtent(f.lpn+int64(f.pages), grow, p.WorkingSetPages)
			e.emitWrite(lpn, grow)
			live[j].pages += grow
		case op < 0.75 && len(live) > 0: // delete: slot becomes reusable
			j := e.r.Intn(len(live))
			deleted := live[j]
			freelist = append(freelist, deleted)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			// One in eight deletions reaches the device as a TRIM
			// (periodic batched discard, not per-unlink); every deletion
			// commits a metadata direct write (journal).
			if e.r.Intn(8) == 0 {
				e.emitTrim(deleted.lpn, deleted.pages)
				e.think(0)
			}
			e.emitWriteKind(trace.DirectWrite, deleted.lpn, 1)
		case len(live) > 0: // read
			j := e.r.Intn(len(live))
			e.emitRead(live[j].lpn, live[j].pages)
		default: // nothing live yet: create
			f := newExtent(e.intRange(2, maxFile))
			live = append(live, f)
			e.emitWrite(f.lpn, f.pages)
		}
	}
	return e.reqs, nil
}
