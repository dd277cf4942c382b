package workload

import (
	"time"

	"jitgc/internal/trace"
)

// Filebench models the Filebench file-server personality: a population of
// medium files receiving whole-file writes, appends and reads. Whole-file
// rewrites of recently written files give good overwrite locality
// (Table 3: 17.5%); fsync-ed metadata puts 14.2% of write volume on the
// direct path (Table 1).
type Filebench struct{}

// NewFilebench returns the Filebench generator.
func NewFilebench() Filebench { return Filebench{} }

// Name implements Generator.
func (Filebench) Name() string { return "Filebench" }

// MinWorkingSetPages implements Generator.
func (Filebench) MinWorkingSetPages() int64 { return 1 }

// Generate implements Generator.
func (g Filebench) Generate(p Params) ([]trace.Request, error) {
	if err := validate(g, p); err != nil {
		return nil, err
	}
	e := newEngine(p, 0.10) // calibrated: device-level direct share lands at Table 1’s 14.2%
	clock := &burstClock{
		lenLo: 4500, lenHi: 9000,
		intraLo: 150 * time.Microsecond, intraHi: 350 * time.Microsecond,
		idleLo: 3000 * time.Millisecond, idleHi: 7000 * time.Millisecond,
	}

	// Fixed file population: slots of 8–64 pages carved from the working
	// set. A write rewrites a whole file; recently written files are
	// rewritten preferentially (file-server temperature).
	const meanFile = 32
	nFiles := p.WorkingSetPages / meanFile
	if nFiles < 8 {
		nFiles = 8
	}
	fileOf := func(i int64) (int64, int) {
		lpn := i * meanFile % p.WorkingSetPages
		pages := 8 + int(i%3)*16 // 8, 24 or 40 pages, deterministic per slot
		lpn, pages = clampExtent(lpn, pages, p.WorkingSetPages)
		return lpn, pages
	}
	zip := newZipfLPN(e.r, nFiles, 1.1) // hot files

	for i := 0; i < p.Ops; i++ {
		e.think(clock.next(e))
		switch op := e.r.Float64(); {
		case op < 0.25: // whole-file write
			lpn, pages := fileOf(zip.next(nFiles))
			e.emitWrite(lpn, pages)
		case op < 0.45: // append
			lpn, pages := fileOf(zip.next(nFiles))
			grow := e.intRange(1, 8)
			alpn, grow := clampExtent(lpn+int64(pages), grow, p.WorkingSetPages)
			e.emitWrite(alpn, grow)
		case op < 0.55: // metadata/journal commit
			lpn, _ := fileOf(zip.next(nFiles))
			e.emitWriteKind(trace.DirectWrite, lpn, 1)
		default: // read
			lpn, pages := fileOf(zip.next(nFiles))
			e.emitRead(lpn, pages)
		}
	}
	return e.reqs, nil
}
