package workload

import (
	"time"

	"jitgc/internal/trace"
)

// YCSB models the Yahoo! Cloud Serving Benchmark running on Cassandra: an
// update-intensive key-value workload. Reads and updates draw keys from a
// zipfian distribution, so a hot set of pages is overwritten again and
// again — which is why the paper's buffered-write predictor is nearly
// perfect here (Table 2: 98.9%) and SIP filtering finds plenty of victims
// (Table 3: 12.2%). Direct writes (commit-log style) are 11.8% of write
// volume (Table 1).
type YCSB struct{}

// NewYCSB returns the YCSB generator.
func NewYCSB() YCSB { return YCSB{} }

// Name implements Generator.
func (YCSB) Name() string { return "YCSB" }

// MinWorkingSetPages implements Generator.
func (YCSB) MinWorkingSetPages() int64 { return 1 }

// Generate implements Generator.
func (g YCSB) Generate(p Params) ([]trace.Request, error) {
	if err := validate(g, p); err != nil {
		return nil, err
	}
	e := newEngine(p, 0.25) // calibrated: device-level direct share lands at Table 1’s 11.8%
	zip := newZipfLPN(e.r, p.WorkingSetPages, 1.02)
	clock := &burstClock{
		lenLo: 4000, lenHi: 8000,
		intraLo: 150 * time.Microsecond, intraHi: 450 * time.Microsecond,
		idleLo: 2000 * time.Millisecond, idleHi: 4000 * time.Millisecond,
	}
	// Log region for the direct commit-log appends: the tail 2% of the
	// working set, written sequentially with wraparound.
	logBase := p.WorkingSetPages * 98 / 100
	logSize := p.WorkingSetPages - logBase
	var logCursor int64

	for i := 0; i < p.Ops; i++ {
		e.think(clock.next(e))
		if e.r.Float64() < 0.40 { // read-modify-write mix
			lpn, pages := clampExtent(zip.next(p.WorkingSetPages), e.intRange(1, 4), p.WorkingSetPages)
			e.emitRead(lpn, pages)
			continue
		}
		pages := e.intRange(3, 8)
		// Key choice: a zipfian hot set (repeated updates that coalesce in
		// the page cache) blended with a uniform tail — the cold-key
		// updates that make YCSB's flush volume large even though its hot
		// keys are rewritten constantly.
		target := zip.next(p.WorkingSetPages)
		if e.r.Float64() < 0.45 {
			target = e.r.Int63n(p.WorkingSetPages)
		}
		// The balancer decides buffered vs direct; direct updates are
		// steered to the commit-log region.
		before := e.directPages
		lpn, pages := clampExtent(target, pages, p.WorkingSetPages)
		e.emitWrite(lpn, pages)
		if e.directPages != before {
			// Rewrite the request as a log append: sequential in the log
			// region.
			last := &e.reqs[len(e.reqs)-1]
			last.LPN = logBase + logCursor%logSize
			if last.LPN+int64(last.Pages) > p.WorkingSetPages {
				last.LPN = logBase
				logCursor = 0
			}
			logCursor += int64(last.Pages)
		}
	}
	return e.reqs, nil
}
