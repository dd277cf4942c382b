package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Log-bucketed streaming histogram (HDR-style). The value domain is
// non-negative int64 — latencies in nanoseconds. Values below subCount are
// recorded exactly in unit-width buckets; above that, each power-of-two
// range [2^k, 2^(k+1)) splits into halfCount equal sub-buckets, so the
// worst-case relative quantile error is 1/halfCount ≈ 3.1%, and the bucket
// count is fixed by the layout: memory is bounded whatever the sample count,
// the property that lets a recorder survive arbitrarily long runs.
//
// A histogram costs what it holds. The first smallCap samples are kept raw
// in a buffer that starts at subCount samples and doubles, never past
// smallCap; the sample that would overflow it moves the histogram to the
// bucket array for good. Every answer is a function of the samples' bucket
// indices (plus the exact min, max and sum), so the two representations are
// indistinguishable from outside — a thousand 60-sample tenants pay for 64
// samples each, not 1,920 buckets.
const (
	subBits   = 6
	subCount  = 1 << subBits                      // values below this are exact
	halfCount = subCount / 2                      // sub-buckets per power-of-two range
	numIdx    = (64-subBits)*halfCount + subCount // index space for all int64 values
	smallCap  = numIdx / 8                        // raw samples kept while they take ≤ 1/8 of the bucket array
)

// LogHist is a streaming histogram over non-negative int64 samples with
// bounded memory, O(1) Add, and mergeability across instances (array
// members record independently and merge at report time). The zero value is
// not ready to use; construct with NewLogHist. LogHist is not safe for
// concurrent use — each recorder owns one, like LatencyRecorder — and that
// includes Quantile, which may reorder the raw samples.
type LogHist struct {
	small    []int64  // raw samples in no particular order; nil once counts is set
	counts   []uint64 // bucket array; nil while the samples fit in small
	total    uint64
	sum      float64 // float accumulator: int64 nanosecond sums can overflow on long runs
	min, max int64
}

// NewLogHist builds an empty streaming histogram. It holds no sample
// storage until the first Add.
func NewLogHist() *LogHist {
	return &LogHist{min: math.MaxInt64}
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
	if h.counts != nil {
		h.counts[indexOf(v)]++
	} else {
		h.addSmall(v)
	}
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// addSmall files v while h has no bucket array: into the raw buffer
// (grown here) or, when it holds smallCap samples, into the bucket array
// the buffer spills to.
func (h *LogHist) addSmall(v int64) {
	if len(h.small) == smallCap {
		h.spill()
		h.counts[indexOf(v)]++
		return
	}
	h.growSmall(len(h.small) + 1)
	h.small = append(h.small, v)
}

// growSmall makes room in the raw buffer for n ≤ smallCap samples,
// doubling its capacity from subCount and capping it at smallCap.
func (h *LogHist) growSmall(n int) {
	if n <= cap(h.small) {
		return
	}
	c := max(subCount, cap(h.small))
	for c < n {
		c *= 2
	}
	h.small = append(make([]int64, 0, min(c, smallCap)), h.small...)
}

// spill moves h to the bucket representation and releases the raw buffer.
func (h *LogHist) spill() {
	h.counts = make([]uint64, numIdx)
	for _, v := range h.small {
		h.counts[indexOf(v)]++
	}
	h.small = nil
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
	v := h.max
	if h.counts == nil {
		// The rank-th smallest sample's bucket is the bucket the walk
		// below would stop in.
		slices.Sort(h.small)
		v = upperEdge(indexOf(h.small[rank-1]))
	} else {
		var cum uint64
		for i, c := range h.counts {
			cum += c
			if cum >= rank {
				v = upperEdge(i)
				break
			}
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
// layout, so the merge is exactly the histogram of the combined sample
// stream: quantiles of the merge equal quantiles of that stream within one
// bucket width. o is left unchanged.
func (h *LogHist) Merge(o *LogHist) {
	if o == nil || o.total == 0 {
		return
	}
	if h.counts == nil && o.counts == nil && len(h.small)+len(o.small) <= smallCap {
		h.growSmall(len(h.small) + len(o.small))
		h.small = append(h.small, o.small...)
	} else {
		if h.counts == nil {
			h.spill()
		}
		// o holds samples or buckets; the other loop is over nil.
		for _, v := range o.small {
			h.counts[indexOf(v)]++
		}
		for i, c := range o.counts {
			h.counts[i] += c
		}
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

// Reset drops all samples, retaining the allocation (and with it the
// representation h has reached).
func (h *LogHist) Reset() {
	h.small = h.small[:0]
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// FootprintBytes returns the memory h's samples occupy: nothing before the
// first Add, the raw buffer (64, 128, then smallCap samples) up to smallCap
// samples, the bucket array after.
// It never exceeds 8·numIdx + 8·smallCap whatever the sample count — the
// quantity TestLogHistConstantMemory asserts.
func (h *LogHist) FootprintBytes() int { return 8 * (cap(h.small) + len(h.counts)) }

// String renders a compact summary for debugging.
func (h *LogHist) String() string {
	return fmt.Sprintf("loghist(n=%d, min=%d, p50=%d, p99=%d, max=%d)",
		h.total, h.Min(), h.Quantile(0.50), h.Quantile(0.99), h.max)
}
