package workload

import (
	"time"

	"jitgc/internal/trace"
)

// TPCC models TPC-C on MySQL/InnoDB: online transaction processing where
// virtually every write is direct — the redo log is written O_SYNC
// sequentially and dirty database pages are flushed O_DIRECT at random
// offsets. With 99.9% direct volume (Table 1) the page cache carries almost
// no information, making this the paper's hardest prediction target
// (Table 2: 72.5%) with negligible SIP filtering (Table 3: 1.1%).
type TPCC struct{}

// NewTPCC returns the TPC-C generator.
func NewTPCC() TPCC { return TPCC{} }

// Name implements Generator.
func (TPCC) Name() string { return "TPC-C" }

// tpccMinLogPages is the smallest redo log.
const tpccMinLogPages = 16

// MinWorkingSetPages implements Generator: the redo log plus a data region
// of at least one page.
func (TPCC) MinWorkingSetPages() int64 { return tpccMinLogPages + 1 }

// Generate implements Generator.
func (g TPCC) Generate(p Params) ([]trace.Request, error) {
	if err := validate(g, p); err != nil {
		return nil, err
	}
	e := newEngine(p, 0.999)
	clock := &burstClock{
		lenLo: 1800, lenHi: 4200,
		intraLo: 200 * time.Microsecond, intraHi: 500 * time.Microsecond,
		idleLo: 3000 * time.Millisecond, idleHi: 6600 * time.Millisecond,
	}

	// Redo log: first 4% of the working set, sequential with wraparound.
	logSize := p.WorkingSetPages * 4 / 100
	if logSize < tpccMinLogPages {
		logSize = tpccMinLogPages
	}
	dataBase := logSize
	dataSize := p.WorkingSetPages - dataBase
	var logCursor int64

	for i := 0; i < p.Ops; i++ {
		e.think(clock.next(e))
		switch op := e.r.Float64(); {
		case op < 0.55: // transaction read (index + row lookups)
			lpn, pages := clampExtent(dataBase+e.r.Int63n(dataSize), e.intRange(1, 2), p.WorkingSetPages)
			e.emitRead(lpn, pages)
		case op < 0.80: // redo log append, O_SYNC
			pages := e.intRange(1, 2)
			lpn := dataBaseLog(logCursor, logSize)
			logCursor += int64(pages)
			e.emitWriteKind(trace.DirectWrite, lpn, pages)
		default: // dirty page flush, O_DIRECT, random
			lpn, pages := clampExtent(dataBase+e.r.Int63n(dataSize), e.intRange(2, 4), p.WorkingSetPages)
			// The balancer keeps the 0.1% buffered residue (binlog etc.).
			e.emitWrite(lpn, pages)
		}
	}
	return e.reqs, nil
}

// dataBaseLog maps a monotone log cursor into the circular redo region.
func dataBaseLog(cursor, logSize int64) int64 { return cursor % logSize }
