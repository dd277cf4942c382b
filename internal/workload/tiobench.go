package workload

import (
	"time"

	"jitgc/internal/trace"
)

// Tiobench models the threaded I/O benchmark: several worker threads
// interleaving sequential and random reads/writes with little think time.
// More than half the write volume is direct (Table 1: 53.7%), which is why
// the paper's prediction accuracy drops here (Table 2: 86.1%) and SIP
// filtering finds little (Table 3: 4.9%).
type Tiobench struct{}

// tiobenchThreads is the number of interleaved workers.
const tiobenchThreads = 4

// NewTiobench returns the Tiobench generator.
func NewTiobench() Tiobench { return Tiobench{} }

// Name implements Generator.
func (Tiobench) Name() string { return "Tiobench" }

// MinWorkingSetPages implements Generator: every thread needs a stripe of
// at least one page.
func (Tiobench) MinWorkingSetPages() int64 { return tiobenchThreads }

// Generate implements Generator.
func (t Tiobench) Generate(p Params) ([]trace.Request, error) {
	if err := validate(t, p); err != nil {
		return nil, err
	}
	e := newEngine(p, 0.537)
	clock := &burstClock{
		lenLo: 2400, lenHi: 6000,
		intraLo: 150 * time.Microsecond, intraHi: 450 * time.Microsecond,
		idleLo: 3000 * time.Millisecond, idleHi: 6600 * time.Millisecond,
	}

	// Each thread owns a stripe of the working set and a sequential cursor
	// within it.
	stripe := p.WorkingSetPages / tiobenchThreads
	cursors := make([]int64, tiobenchThreads)

	for i := 0; i < p.Ops; i++ {
		e.think(clock.next(e))
		th := e.r.Intn(tiobenchThreads)
		base := int64(th) * stripe
		var lpn int64
		pages := e.intRange(1, 5)
		if e.r.Float64() < 0.5 { // sequential within the thread's stripe
			lpn = base + cursors[th]
			cursors[th] += int64(pages)
			if cursors[th] >= stripe {
				cursors[th] = 0
			}
		} else { // random within the stripe
			lpn = base + e.r.Int63n(stripe)
		}
		lpn, pages = clampExtent(lpn, pages, p.WorkingSetPages)
		if e.r.Float64() < 0.40 {
			e.emitRead(lpn, pages)
		} else {
			e.emitWrite(lpn, pages)
		}
	}
	return e.reqs, nil
}
