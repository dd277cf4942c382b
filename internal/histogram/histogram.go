// Package histogram provides the fixed-bin histogram and cumulative data
// histogram (CDH) used by the JIT-GC direct-write predictor (paper §3.2.2,
// Fig. 5): the predictor records how much data was written during each past
// write-back window and reserves free space at a chosen CDH percentile.
package histogram

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrBadBinWidth is returned when constructing a histogram with a
// non-positive bin width.
var ErrBadBinWidth = errors.New("histogram: bin width must be positive")

// Histogram is a fixed-bin-width histogram over non-negative sample values.
// Samples ≥ the binned range (bins × binWidth) are counted in an explicit
// overflow bin and their true maximum is tracked, so out-of-range bursts
// are never silently recorded as smaller than they were (which would make
// the reserve-space percentile underestimate exactly the bursts it exists
// to cover). An optional sliding window keeps only the most recent samples,
// letting predictors adapt to workload phase changes.
type Histogram struct {
	binWidth float64
	counts   []uint64
	total    uint64 // Σcounts + overflow

	overflow    uint64  // samples ≥ bins × binWidth
	overflowSum float64 // sum of overflow sample values (for Mean)
	maxSample   float64 // largest retained sample value

	window  int       // 0 = unbounded
	samples []float64 // ring buffer of retained samples when window > 0
	next    int
}

// New creates a histogram with the given bin width and bin count.
// Bin i covers [i*binWidth, (i+1)*binWidth); samples at or beyond the last
// bin's upper edge land in the overflow bin.
func New(binWidth float64, bins int) (*Histogram, error) {
	if binWidth <= 0 || math.IsNaN(binWidth) || math.IsInf(binWidth, 0) {
		return nil, ErrBadBinWidth
	}
	if bins <= 0 {
		return nil, fmt.Errorf("histogram: bin count %d must be positive", bins)
	}
	return &Histogram{binWidth: binWidth, counts: make([]uint64, bins)}, nil
}

// NewWindowed creates a histogram that retains only the most recent window
// samples; older samples are evicted as new ones arrive.
func NewWindowed(binWidth float64, bins, window int) (*Histogram, error) {
	h, err := New(binWidth, bins)
	if err != nil {
		return nil, err
	}
	if window <= 0 {
		return nil, fmt.Errorf("histogram: window %d must be positive", window)
	}
	h.window = window
	h.samples = make([]float64, 0, window)
	return h, nil
}

// upperEdge is the top of the binned range; samples at or above it overflow.
func (h *Histogram) upperEdge() float64 {
	return float64(len(h.counts)) * h.binWidth
}

// binOf returns the bin index for an in-range value, or ok=false when the
// value belongs in the overflow bin.
func (h *Histogram) binOf(v float64) (i int, ok bool) {
	if v >= h.upperEdge() {
		return 0, false
	}
	return int(v / h.binWidth), true
}

// record counts one (already clamped, finite) sample.
func (h *Histogram) record(v float64) {
	if i, ok := h.binOf(v); ok {
		h.counts[i]++
	} else {
		h.overflow++
		h.overflowSum += v
	}
	h.total++
	if v > h.maxSample {
		h.maxSample = v
	}
}

// unrecord removes one previously recorded sample (windowed eviction).
func (h *Histogram) unrecord(v float64) {
	if i, ok := h.binOf(v); ok {
		h.counts[i]--
	} else {
		h.overflow--
		h.overflowSum -= v
	}
	h.total--
	if v >= h.maxSample {
		// The evicted sample may have been the maximum: recompute over the
		// retained ring (only the windowed variant ever evicts).
		h.maxSample = 0
		for _, s := range h.samples {
			if s > h.maxSample {
				h.maxSample = s
			}
		}
	}
}

// Add records one sample. NaN and +Inf samples are dropped; negative
// samples clamp to 0.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 1) {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.window > 0 {
		if len(h.samples) == h.window {
			old := h.samples[h.next]
			h.samples[h.next] = v
			h.next = (h.next + 1) % h.window
			h.unrecord(old)
		} else {
			h.samples = append(h.samples, v)
		}
	}
	h.record(v)
}

// Count returns the number of retained samples, including overflow.
func (h *Histogram) Count() uint64 { return h.total }

// Overflow returns how many retained samples fell at or beyond the binned
// range.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Max returns the largest retained sample value (0 if empty).
func (h *Histogram) Max() float64 { return h.maxSample }

// Bins returns a copy of the per-bin counts (excluding the overflow bin).
func (h *Histogram) Bins() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Reset drops all samples.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.overflow = 0
	h.overflowSum = 0
	h.maxSample = 0
	h.samples = h.samples[:0]
	h.next = 0
}

// CDH returns the cumulative data histogram: CDH()[i] is the fraction of
// samples with value below the upper edge of bin i. It is monotone
// non-decreasing and ends at 1 − Overflow()/Count() (i.e. at 1 exactly when
// no sample overflowed the binned range). With no samples it returns all
// zeros.
func (h *Histogram) CDH() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		out[i] = float64(cum) / float64(h.total)
	}
	return out
}

// ValueAtPercentile returns the smallest bin upper edge whose cumulative
// fraction is at least p (in [0,1]). This is the paper's reserve-space
// rule: reserving ValueAtPercentile(0.8) covers at least 80% of observed
// windows. When the percentile lands in the overflow bin the binned edges
// cannot bound it, so the true sample maximum is returned instead — the
// reserve upper-bounds out-of-range bursts rather than underestimating
// them. With no samples it returns 0.
func (h *Histogram) ValueAtPercentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	threshold := p * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		cum += float64(c)
		if cum >= threshold && cum > 0 {
			return float64(i+1) * h.binWidth
		}
	}
	return h.maxSample
}

// Mean returns the mean sample value: bin midpoints weighted by counts,
// plus the exact sum of overflow samples (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	sum := h.overflowSum
	for i, c := range h.counts {
		mid := (float64(i) + 0.5) * h.binWidth
		sum += mid * float64(c)
	}
	return sum / float64(h.total)
}

// String renders a compact textual summary for debugging.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "histogram(binWidth=%g, n=%d)[", h.binWidth, h.total)
	first := true
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%g:%d", float64(i)*h.binWidth, c)
		first = false
	}
	if h.overflow > 0 {
		if !first {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "≥%g:%d(max=%g)", h.upperEdge(), h.overflow, h.maxSample)
	}
	b.WriteString("]")
	return b.String()
}
