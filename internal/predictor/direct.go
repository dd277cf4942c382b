package predictor

import (
	"fmt"

	"jitgc/internal/histogram"
)

// CDHTracker is the cumulative-data-histogram predictor of paper §3.2.2.
// It accumulates observed write volume, closes one sample per τ_expire
// window, and predicts the reserve δ(t) as a percentile of the resulting
// CDH. JIT-GC feeds it direct-write traffic only; the ADP-GC baseline feeds
// it all device writes (the only information available inside the SSD).
type CDHTracker struct {
	hist       *histogram.Histogram
	percentile float64
	wb         WriteBack
	ticks      int   // intervals elapsed in the current window
	window     int64 // bytes observed in the current window
	demand     Demand
}

// DefaultPercentile is the paper's empirically chosen CDH percentile:
// reserving at the 80th percentile avoids FGC for 80% of windows without
// the lifetime cost of over-reserving.
const DefaultPercentile = 0.80

// NewCDHTracker builds a tracker. binWidth (bytes) and bins size the
// histogram; recentWindows bounds how many past windows are retained
// (0 keeps everything).
func NewCDHTracker(wb WriteBack, percentile, binWidth float64, bins, recentWindows int) (*CDHTracker, error) {
	if err := wb.Validate(); err != nil {
		return nil, err
	}
	if percentile <= 0 || percentile > 1 {
		return nil, fmt.Errorf("predictor: percentile %v outside (0,1]", percentile)
	}
	var h *histogram.Histogram
	var err error
	if recentWindows > 0 {
		h, err = histogram.NewWindowed(binWidth, bins, recentWindows)
	} else {
		h, err = histogram.New(binWidth, bins)
	}
	if err != nil {
		return nil, err
	}
	return &CDHTracker{hist: h, percentile: percentile, wb: wb, demand: make(Demand, wb.Nwb())}, nil
}

// Observe records bytes written during the current interval.
func (c *CDHTracker) Observe(bytes int64) {
	if bytes > 0 {
		c.window += bytes
	}
}

// Tick marks a write-back interval boundary. Every Nwb ticks the
// accumulated window closes into the histogram.
func (c *CDHTracker) Tick() {
	c.ticks++
	if c.ticks >= c.wb.Nwb() {
		c.hist.Add(float64(c.window))
		c.ticks = 0
		c.window = 0
	}
}

// Reserve returns δ(t): the per-τ_expire-window volume to reserve, from the
// configured CDH percentile. During warm-up (no closed window yet) it
// extrapolates the in-progress window.
func (c *CDHTracker) Reserve() int64 {
	if c.hist.Count() == 0 {
		if c.ticks == 0 {
			return 0
		}
		return c.window * int64(c.wb.Nwb()) / int64(c.ticks)
	}
	return int64(c.hist.ValueAtPercentile(c.percentile))
}

// Predict returns the demand sequence: δ(t)/Nwb for each future interval
// (the paper's D^i_dir). The result shares the tracker's buffer and is valid
// only until the next Predict call.
func (c *CDHTracker) Predict() Demand {
	per := c.Reserve() / int64(len(c.demand))
	for i := range c.demand {
		c.demand[i] = per
	}
	return c.demand
}

// Histogram exposes the underlying histogram for reporting (Fig. 5).
func (c *CDHTracker) Histogram() *histogram.Histogram { return c.hist }

// Percentile returns the configured CDH percentile.
func (c *CDHTracker) Percentile() float64 { return c.percentile }
