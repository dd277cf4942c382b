package workload

import (
	"time"

	"jitgc/internal/trace"
)

// Bonnie models Bonnie++: phased sequential streaming — a sequential write
// pass over a large file, a rewrite pass (read-modify-write of the same
// extents), and a sequential read pass, with per-character phases adding
// small I/O. Sequential rewrites give moderate overwrite locality
// (Table 3: 8.7%); O_DIRECT phases put 27.6% of write volume on the direct
// path (Table 1).
type Bonnie struct{}

// NewBonnie returns the Bonnie++ generator.
func NewBonnie() Bonnie { return Bonnie{} }

// Name implements Generator.
func (Bonnie) Name() string { return "Bonnie++" }

// MinWorkingSetPages implements Generator.
func (Bonnie) MinWorkingSetPages() int64 { return 1 }

// Generate implements Generator.
func (g Bonnie) Generate(p Params) ([]trace.Request, error) {
	if err := validate(g, p); err != nil {
		return nil, err
	}
	e := newEngine(p, 0.29) // calibrated: device-level direct share lands at Table 1’s 27.6%
	clock := &burstClock{
		lenLo: 2000, lenHi: 4200,
		intraLo: 200 * time.Microsecond, intraHi: 500 * time.Microsecond,
		idleLo: 4000 * time.Millisecond, idleHi: 9000 * time.Millisecond,
	}

	var cursor int64
	phase := 0 // cycle: seq write, seq read, rewrite, seq read
	phaseLen := p.Ops / 12
	if phaseLen < 1 {
		phaseLen = 1
	}
	left := phaseLen

	for i := 0; i < p.Ops; i++ {
		e.think(clock.next(e))
		if left == 0 {
			phase = (phase + 1) % 4
			left = phaseLen
			cursor = 0
		}
		left--
		pages := e.intRange(2, 6)
		lpn, pages := clampExtent(cursor, pages, p.WorkingSetPages)
		cursor += int64(pages)
		if cursor >= p.WorkingSetPages {
			cursor = 0
		}
		switch phase {
		case 0, 2: // write and rewrite passes both stream writes
			e.emitWrite(lpn, pages)
		default:
			e.emitRead(lpn, pages)
		}
	}
	return e.reqs, nil
}
