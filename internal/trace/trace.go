// Package trace defines the block-level I/O request record shared by the
// workload generators, the discrete-event simulator, and the trace file
// format, so that synthetic workloads and replayed traces drive the SSD
// model identically.
package trace

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Kind classifies a request on the host datapath. The distinction between
// buffered and direct writes is central to the paper: buffered writes pass
// through the page cache (and are therefore predictable from dirty-page
// ages), direct writes bypass it (and are predicted from a CDH).
type Kind uint8

// Request kinds.
const (
	// Read is a host read. Reads never allocate flash pages but occupy
	// device time and shape idleness.
	Read Kind = iota
	// BufferedWrite goes through the page cache and reaches the SSD later,
	// when the flusher evicts it.
	BufferedWrite
	// DirectWrite bypasses the page cache (O_SYNC / O_DIRECT) and reaches
	// the SSD immediately.
	DirectWrite
	// Trim discards a logical range (file deletion reaching the device as
	// an ATA TRIM / SCSI UNMAP): the FTL invalidates the mapping without
	// writing anything, making GC cheaper.
	Trim
)

// String returns the canonical single-letter trace code of k.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case BufferedWrite:
		return "W"
	case DirectWrite:
		return "D"
	case Trim:
		return "T"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Request is one host I/O request. It is 24 bytes: Kind and Pages share
// one word, so a stream of n requests holds 24n bytes.
type Request struct {
	// Time is the arrival time, measured from simulation start.
	Time time.Duration
	// LPN is the first logical page number touched.
	LPN int64
	// Kind classifies the request.
	Kind Kind
	// Pages is the request length in logical pages (1 ≤ Pages ≤
	// math.MaxInt32).
	Pages int32
}

// Validate reports whether r is well-formed.
func (r Request) Validate() error {
	switch {
	case r.Time < 0:
		return fmt.Errorf("trace: negative time %v", r.Time)
	case r.Kind > Trim:
		return fmt.Errorf("trace: unknown kind %d", uint8(r.Kind))
	case r.LPN < 0:
		return fmt.Errorf("trace: negative LPN %d", r.LPN)
	case r.Pages <= 0:
		return fmt.Errorf("trace: non-positive length %d pages", r.Pages)
	case r.LPN > math.MaxInt64-int64(r.Pages):
		// End() would wrap negative and slip past capacity checks.
		return fmt.Errorf("trace: LPN %d + %d pages overflows", r.LPN, r.Pages)
	}
	return nil
}

// NarrowPages converts a decoded page count to a Request.Pages value. A
// count above math.MaxInt32 is rejected rather than wrapped, and so is a
// non-positive one.
func NarrowPages(n int64) (int32, error) {
	switch {
	case n <= 0:
		return 0, fmt.Errorf("trace: non-positive length %d pages", n)
	case n > math.MaxInt32:
		return 0, fmt.Errorf("trace: length %d pages exceeds %d", n, math.MaxInt32)
	}
	return int32(n), nil
}

// IsWrite reports whether the request writes data.
func (r Request) IsWrite() bool { return r.Kind == BufferedWrite || r.Kind == DirectWrite }

// End returns the first LPN past the request.
func (r Request) End() int64 { return r.LPN + int64(r.Pages) }

// ErrNotSorted is returned by Validate-ing a trace whose timestamps go
// backwards.
var ErrNotSorted = errors.New("trace: requests not sorted by time")

// ValidateAll checks every request and that timestamps are non-decreasing.
func ValidateAll(reqs []Request) error {
	var prev time.Duration
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if r.Time < prev {
			return fmt.Errorf("request %d at %v after %v: %w", i, r.Time, prev, ErrNotSorted)
		}
		prev = r.Time
	}
	return nil
}

// Stats summarizes a request stream.
type Stats struct {
	Requests       int
	ReadPages      int64
	BufferedPages  int64
	DirectPages    int64
	TrimmedPages   int64
	MaxLPN         int64
	Duration       time.Duration
	BufferedRatio  float64 // buffered pages / written pages
	DirectRatio    float64 // direct pages / written pages
	WrittenPages   int64
	ReadRequests   int
	WriteRequests  int
	FirstArrival   time.Duration
	MeanWritePages float64
}

// Summarize computes aggregate statistics of a request stream.
func Summarize(reqs []Request) Stats {
	var s Stats
	s.Requests = len(reqs)
	if len(reqs) == 0 {
		return s
	}
	s.FirstArrival = reqs[0].Time
	for _, r := range reqs {
		if end := r.End(); end > s.MaxLPN {
			s.MaxLPN = end
		}
		if r.Time > s.Duration {
			s.Duration = r.Time
		}
		switch r.Kind {
		case Read:
			s.ReadPages += int64(r.Pages)
			s.ReadRequests++
		case BufferedWrite:
			s.BufferedPages += int64(r.Pages)
			s.WriteRequests++
		case DirectWrite:
			s.DirectPages += int64(r.Pages)
			s.WriteRequests++
		case Trim:
			s.TrimmedPages += int64(r.Pages)
		}
	}
	s.WrittenPages = s.BufferedPages + s.DirectPages
	if s.WrittenPages > 0 {
		s.BufferedRatio = float64(s.BufferedPages) / float64(s.WrittenPages)
		s.DirectRatio = float64(s.DirectPages) / float64(s.WrittenPages)
	}
	if s.WriteRequests > 0 {
		s.MeanWritePages = float64(s.WrittenPages) / float64(s.WriteRequests)
	}
	return s
}
