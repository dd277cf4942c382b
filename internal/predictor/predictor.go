// Package predictor implements the paper's future write demand predictors
// (§3.2): the buffered-write predictor that scans page-cache dirty ages to
// produce the per-interval demand sequence Dbuf and the SIP list, and the
// CDH-based direct-write predictor that produces Ddir. A device-level
// variant of the CDH predictor reproduces the ADP-GC baseline.
package predictor

import (
	"fmt"
	"time"
)

// Demand is a sequence of predicted write volumes (bytes), one entry per
// future write-back interval: Demand[i-1] corresponds to the paper's
// D^i(t) for interval I^i_wb(t) = [t+i·p, t+(i+1)·p).
type Demand []int64

// Total returns the summed demand over the horizon.
func (d Demand) Total() int64 {
	var sum int64
	for _, v := range d {
		sum += v
	}
	return sum
}

// Clone returns a copy of d.
func (d Demand) Clone() Demand {
	out := make(Demand, len(d))
	copy(out, d)
	return out
}

// String renders the sequence like the paper: "(0, 0, 20, 40, 0, 200)".
func (d Demand) String() string {
	s := "("
	for i, v := range d {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d", v)
	}
	return s + ")"
}

// Prediction is the full output of the future write demand predictor at one
// write-back interval boundary.
type Prediction struct {
	// Buffered is Dbuf(t): upper bounds on page-cache write-back volume.
	Buffered Demand
	// Direct is Ddir(t): the CDH-derived direct-write reserve, spread
	// evenly over the horizon.
	Direct Demand
	// SIP is the change, since the previous prediction, in the set of
	// logical pages dirty in the page cache — the pages whose on-SSD copies
	// are soon to be invalidated.
	SIP SIPChange
}

// SIPChange turns the SIP set as of the previous prediction into the current
// one: with Reset, empty the set first; then add Add and remove Drop. The
// zero value changes nothing.
type SIPChange struct {
	Reset     bool
	Add, Drop []int64
}

// Total returns Creq(t) = Σ(D^i_buf + D^i_dir).
func (p Prediction) Total() int64 { return p.Buffered.Total() + p.Direct.Total() }

// WriteBack describes the write-back timing parameters shared by all
// predictors: the flusher period p and expiration threshold τ_expire.
type WriteBack struct {
	Period time.Duration // p
	Expire time.Duration // τ_expire
}

// Validate reports whether the parameters are usable (positive and with
// τ_expire a multiple of p, the paper's structural assumption).
func (wb WriteBack) Validate() error {
	switch {
	case wb.Period <= 0:
		return fmt.Errorf("predictor: period %v", wb.Period)
	case wb.Expire <= 0:
		return fmt.Errorf("predictor: expire %v", wb.Expire)
	case wb.Expire%wb.Period != 0:
		return fmt.Errorf("predictor: expire %v not a multiple of period %v", wb.Expire, wb.Period)
	}
	return nil
}

// Nwb returns τ_expire / p, the prediction horizon in intervals.
func (wb WriteBack) Nwb() int { return int(wb.Expire / wb.Period) }
