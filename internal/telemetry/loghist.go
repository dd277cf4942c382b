package telemetry

import (
	"fmt"
	"math"
	"math/bits"
)

// Log-bucketed streaming histogram (HDR-style). The value domain is
// non-negative int64 — latencies in nanoseconds. Values below subCount are
// recorded exactly in unit-width buckets; above that, each power-of-two
// range [2^k, 2^(k+1)) splits into halfCount equal sub-buckets, so the
// worst-case relative quantile error is 1/halfCount ≈ 3.1%, and the bucket
// count is fixed at construction: memory is constant in sample count, the
// property that lets a recorder survive arbitrarily long runs.
const (
	subBits   = 6
	subCount  = 1 << subBits                      // values below this are exact
	halfCount = subCount / 2                      // sub-buckets per power-of-two range
	numIdx    = (64-subBits)*halfCount + subCount // index space for all int64 values
)

// LogHist is a streaming histogram over non-negative int64 samples with
// O(1) memory, O(1) Add, and mergeability across instances (array members
// record independently and merge at report time). The zero value is not
// ready to use; construct with NewLogHist. LogHist is not safe for
// concurrent use — each recorder owns one, like LatencyRecorder.
type LogHist struct {
	counts   []uint64
	total    uint64
	sum      float64 // float accumulator: int64 nanosecond sums can overflow on long runs
	min, max int64
}

// NewLogHist builds an empty streaming histogram.
func NewLogHist() *LogHist {
	return &LogHist{counts: make([]uint64, numIdx), min: math.MaxInt64}
}

// indexOf maps a non-negative value to its bucket index.
func indexOf(v int64) int {
	u := uint64(v)
	hb := bits.Len64(u)
	if hb <= subBits {
		return int(u)
	}
	bucket := hb - subBits
	return bucket*halfCount + int(u>>uint(bucket))
}

// upperEdge returns the largest value mapping to bucket index idx.
func upperEdge(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	bucket := idx/halfCount - 1
	sub := int64(idx - bucket*halfCount)
	return (sub+1)<<uint(bucket) - 1
}

// Add records one sample. Negative samples clamp to 0.
func (h *LogHist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[indexOf(v)]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *LogHist) Count() uint64 { return h.total }

// Min returns the exact minimum sample (0 if empty).
func (h *LogHist) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum sample (0 if empty).
func (h *LogHist) Max() int64 { return h.max }

// Mean returns the exact mean sample value (0 if empty).
func (h *LogHist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns the q-th quantile (q in [0,1]) as the upper edge of the
// bucket holding the rank-⌈q·n⌉ sample, clamped to the exact observed
// [Min, Max] — so Quantile(0) is exact-min and Quantile(1) exact-max, and
// any quantile is within one bucket width of the exact order statistic.
func (h *LogHist) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	v := h.max
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v = upperEdge(i)
			break
		}
	}
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// WidthAt returns the width of the bucket containing v — the resolution of
// any quantile landing near v, and the tolerance exact-vs-streaming parity
// tests should allow.
func (h *LogHist) WidthAt(v int64) int64 {
	if v < 0 {
		v = 0
	}
	idx := indexOf(v)
	if idx < subCount {
		return 1
	}
	return int64(1) << uint(idx/halfCount-1)
}

// Merge folds o's samples into h. Histograms always share the fixed bucket
// layout, so merging is element-wise addition: quantiles of the merge equal
// quantiles of the combined sample stream within one bucket width.
func (h *LogHist) Merge(o *LogHist) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset drops all samples, retaining the allocation.
func (h *LogHist) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// FootprintBytes returns the fixed memory footprint of the bucket array —
// the quantity the constant-memory benchmark asserts does not grow with
// sample count.
func (h *LogHist) FootprintBytes() int { return 8 * len(h.counts) }

// String renders a compact summary for debugging.
func (h *LogHist) String() string {
	return fmt.Sprintf("loghist(n=%d, min=%d, p50=%d, p99=%d, max=%d)",
		h.total, h.Min(), h.Quantile(0.50), h.Quantile(0.99), h.max)
}
