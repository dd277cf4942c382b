package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// exactQuantile is the reference order statistic the histogram approximates:
// the rank-⌈q·n⌉ element of the sorted sample.
func exactQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestLogHistSmallValuesExact(t *testing.T) {
	h := NewLogHist()
	// Values below subCount land in unit-width buckets, so quantiles are
	// exact there.
	for v := int64(0); v < subCount; v++ {
		h.Add(v)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
		want := exactQuantile(seq(subCount), q)
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %d, want exact %d", q, got, want)
		}
	}
	if h.Min() != 0 || h.Max() != subCount-1 {
		t.Errorf("min/max = %d/%d, want 0/%d", h.Min(), h.Max(), subCount-1)
	}
	if got, want := h.Mean(), float64(subCount-1)/2; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func seq(n int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i)
	}
	return s
}

func TestLogHistIndexEdges(t *testing.T) {
	// Every reachable bucket's upper edge must map back to that bucket, and
	// the next value must map to the next bucket: the index space covering
	// non-negative int64 is contiguous with no gaps or overlaps.
	maxIdx := indexOf(math.MaxInt64)
	if maxIdx >= numIdx {
		t.Fatalf("indexOf(MaxInt64) = %d, out of range %d", maxIdx, numIdx)
	}
	for idx := 0; idx < maxIdx; idx++ {
		e := upperEdge(idx)
		if got := indexOf(e); got != idx {
			t.Fatalf("indexOf(upperEdge(%d)=%d) = %d", idx, e, got)
		}
		if got := indexOf(e + 1); got != idx+1 {
			t.Fatalf("indexOf(%d) = %d, want %d", e+1, got, idx+1)
		}
	}
	if e := upperEdge(maxIdx); e != math.MaxInt64 {
		t.Fatalf("upperEdge(maxIdx=%d) = %d, want MaxInt64", maxIdx, e)
	}
}

func TestLogHistQuantileError(t *testing.T) {
	// On log-uniform random samples, every quantile must land within one
	// bucket width of the exact order statistic.
	rng := rand.New(rand.NewSource(7))
	h := NewLogHist()
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(math.Exp(rng.Float64()*30)) + rng.Int63n(100)
		h.Add(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		want := exactQuantile(samples, q)
		got := h.Quantile(q)
		if d := got - want; d < 0 || d > h.WidthAt(want) {
			t.Errorf("Quantile(%v) = %d, exact %d, off by %d (> bucket width %d)",
				q, got, want, d, h.WidthAt(want))
		}
	}
	if h.Count() != 20000 {
		t.Errorf("Count = %d", h.Count())
	}
}

// TestLogHistMergeProperty is the satellite's property test: for random
// sample sets a and b, every quantile of merge(hist(a), hist(b)) equals the
// same quantile of hist(a ++ b) exactly (same bucket layout), and is within
// one bucket width of the exact combined order statistic.
func TestLogHistMergeProperty(t *testing.T) {
	prop := func(a, b []uint32, qSeed uint32) bool {
		ha, hb, hc := NewLogHist(), NewLogHist(), NewLogHist()
		all := make([]int64, 0, len(a)+len(b))
		for _, v := range a {
			ha.Add(int64(v))
			hc.Add(int64(v))
			all = append(all, int64(v))
		}
		for _, v := range b {
			hb.Add(int64(v))
			hc.Add(int64(v))
			all = append(all, int64(v))
		}
		ha.Merge(hb)
		if ha.Count() != hc.Count() || ha.Min() != hc.Min() || ha.Max() != hc.Max() {
			return false
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		q := float64(qSeed%1000) / 1000
		m, c := ha.Quantile(q), hc.Quantile(q)
		if m != c { // merged and directly-combined histograms are identical
			return false
		}
		if len(all) == 0 {
			return m == 0
		}
		want := exactQuantile(all, q)
		d := m - want
		return d >= 0 && d <= ha.WidthAt(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLogHistMergeEmptyAndNil(t *testing.T) {
	h := NewLogHist()
	h.Add(10)
	h.Merge(nil)
	h.Merge(NewLogHist())
	if h.Count() != 1 || h.Min() != 10 || h.Max() != 10 {
		t.Errorf("merge with empty changed state: %v", h)
	}
}

func TestLogHistNegativeClampsAndReset(t *testing.T) {
	h := NewLogHist()
	h.Add(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Errorf("negative sample not clamped: %v", h)
	}
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Mean() != 0 {
		t.Errorf("reset incomplete: %v", h)
	}
}

// TestLogHistConstantMemory pins the O(1)-memory claim: the footprint after
// one sample equals the footprint after a million.
func TestLogHistConstantMemory(t *testing.T) {
	h := NewLogHist()
	h.Add(1)
	before := h.FootprintBytes()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		h.Add(rng.Int63n(1 << 40))
	}
	if after := h.FootprintBytes(); after != before {
		t.Errorf("footprint grew %d → %d bytes over 1M samples", before, after)
	}
}

// TestLogHistZeroAlloc is the per-call side of the constant-memory claim:
// neither recording a sample nor reading a quantile allocates.
func TestLogHistZeroAlloc(t *testing.T) {
	h := NewLogHist()
	i := int64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		h.Add(i*2654435761 + 12345)
		i++
	}); avg != 0 {
		t.Errorf("Add allocates %.2f times per sample, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { h.Quantile(0.99) }); avg != 0 {
		t.Errorf("Quantile allocates %.2f times per call, want 0", avg)
	}
}

func BenchmarkLogHistAdd(b *testing.B) {
	h := NewLogHist()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(int64(i)*2654435761 + 12345)
	}
	if h.FootprintBytes() != 8*numIdx {
		b.Fatal("footprint changed")
	}
}

func BenchmarkLogHistQuantile(b *testing.B) {
	h := NewLogHist()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Add(rng.Int63n(1 << 30))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}
