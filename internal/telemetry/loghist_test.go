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

// summary is everything a LogHist answers, in comparable form: two
// histograms with equal summaries are indistinguishable through the API.
type summary struct {
	count     uint64
	min, max  int64
	mean      float64
	quantiles [len(qGrid)]int64
	text      string
}

// qGrid covers both clamps, the out-of-range arguments and the tail ranks
// the tables report.
var qGrid = [...]float64{-0.5, 0, 0.0001, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1, 1.5}

func summarize(h *LogHist) summary {
	s := summary{count: h.Count(), min: h.Min(), max: h.Max(), mean: h.Mean(), text: h.String()}
	for i, q := range qGrid {
		s.quantiles[i] = h.Quantile(q)
	}
	return s
}

// histOf records samples into a fresh histogram. With buckets set it is
// moved to the bucket array before the first sample — the full-size-from-
// birth histogram every LogHist used to be, kept here as the reference.
func histOf(samples []int64, buckets bool) *LogHist {
	h := NewLogHist()
	if buckets {
		h.spill()
	}
	for _, v := range samples {
		h.Add(v)
	}
	return h
}

// sampleSet draws 0…1,000 samples, a third of the time within a few of
// smallCap so the spill itself is well covered. Magnitudes are log-uniform
// over the whole int64 range, with negatives (which clamp) and repeats.
func sampleSet(rng *rand.Rand) []int64 {
	n := rng.Intn(1001)
	if rng.Intn(3) == 0 {
		n = smallCap - 3 + rng.Intn(7)
	}
	s := make([]int64, n)
	for i := range s {
		switch v := rng.Int63() >> uint(rng.Intn(63)); rng.Intn(10) {
		case 0:
			s[i] = -v
		case 1:
			if i > 0 {
				s[i] = s[rng.Intn(i)]
			}
		default:
			s[i] = v
		}
	}
	return s
}

// TestLogHistRepresentationsAgree is the differential that lets the raw
// sample buffer stand in for the bucket array: for sample sets on both sides
// of smallCap, a histogram left to choose its representation answers every
// query exactly as one forced to buckets from birth, and so does every
// Merge — small or bucket on either side, in either order.
func TestLogHistRepresentationsAgree(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := sampleSet(rng), sampleSet(rng)

		want := summarize(histOf(a, true))
		h := histOf(a, false)
		if small := h.counts == nil; small != (len(a) <= smallCap) {
			t.Logf("seed %d: %d samples, small = %v", seed, len(a), small)
			return false
		}
		if got := summarize(h); got != want {
			t.Logf("seed %d: %d samples\n got  %+v\n want %+v", seed, len(a), got, want)
			return false
		}
		empty := histOf(nil, true)
		for _, v := range a {
			if w := empty.WidthAt(v); h.WidthAt(v) != w {
				t.Logf("seed %d: WidthAt(%d) = %d, want %d", seed, v, h.WidthAt(v), w)
				return false
			}
		}

		ref := histOf(a, true)
		ref.Merge(histOf(b, true))
		want = summarize(ref)
		for _, forced := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
			ha, hb := histOf(a, forced[0]), histOf(b, forced[1])
			bBefore := summarize(hb)
			ha.Merge(hb)
			if got := summarize(ha); got != want {
				t.Logf("seed %d: merge %d+%d forced %v\n got  %+v\n want %+v", seed, len(a), len(b), forced, got, want)
				return false
			}
			if summarize(hb) != bBefore {
				t.Logf("seed %d: merge changed its argument", seed)
				return false
			}
			// The other order: same samples, and a+b = b+a in the sum.
			hb, ha = histOf(b, forced[1]), histOf(a, forced[0])
			hb.Merge(ha)
			if got := summarize(hb); got != want {
				t.Logf("seed %d: merge %d+%d forced %v reversed\n got  %+v\n want %+v", seed, len(b), len(a), forced, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestLogHistMergeSpillsAtThreshold: merging two sample buffers keeps the
// raw samples exactly while they fit one buffer — the same threshold Add
// spills at — whichever side brings the bulk.
func TestLogHistMergeSpillsAtThreshold(t *testing.T) {
	for total := smallCap - 1; total <= smallCap+2; total++ {
		for _, na := range []int{0, 1, total / 2, total - 1, total} {
			ha, hb := histOf(seq(int64(na)), false), histOf(seq(int64(total-na)), false)
			ha.Merge(hb)
			if small := ha.counts == nil; small != (total <= smallCap) {
				t.Errorf("merge %d+%d samples: small = %v", na, total-na, small)
			}
			if got := ha.FootprintBytes(); got != 8*smallCap && got != 8*numIdx {
				t.Errorf("merge %d+%d samples: footprint %d bytes, want one buffer or one bucket array", na, total-na, got)
			}
		}
	}
}

// TestLogHistConstantMemory pins the memory claim: nothing before the first
// sample, the raw buffer through sample smallCap, the bucket array from the
// next one on, and never more than 8·numIdx + 8·smallCap whatever the count.
func TestLogHistConstantMemory(t *testing.T) {
	h := NewLogHist()
	if got := h.FootprintBytes(); got != 0 {
		t.Errorf("empty footprint %d bytes, want 0", got)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 1_000_000; i++ {
		h.Add(rng.Int63n(1 << 40))
		got := h.FootprintBytes()
		if got > 8*numIdx+8*smallCap {
			t.Fatalf("footprint %d bytes after %d samples, bound %d", got, i, 8*numIdx+8*smallCap)
		}
		if want := 8 * smallCap; i <= smallCap && got != want {
			t.Fatalf("footprint %d bytes after %d samples, want the %d-byte buffer", got, i, want)
		}
		if want := 8 * numIdx; i > smallCap && got != want {
			t.Fatalf("footprint %d bytes after %d samples, want the %d-byte bucket array", got, i, want)
		}
	}
}

// TestLogHistZeroAlloc is the per-call side of the memory claim: after the
// first sample (which allocates the buffer) and apart from the one spill,
// neither recording a sample, reading a quantile nor merging allocates, in
// either representation.
func TestLogHistZeroAlloc(t *testing.T) {
	h := NewLogHist()
	i := int64(0)
	add := func() {
		h.Add(i*2654435761 + 12345)
		i++
	}
	add()
	other := histOf([]int64{3, 1 << 20, 1 << 40}, false)
	for _, rep := range []string{"small", "bucket"} {
		if rep == "bucket" {
			for h.counts == nil {
				add()
			}
		}
		// 21 calls each: the three together stay under smallCap.
		if avg := testing.AllocsPerRun(20, add); avg != 0 {
			t.Errorf("%s: Add allocates %.2f times per sample, want 0", rep, avg)
		}
		if avg := testing.AllocsPerRun(20, func() { h.Quantile(0.99) }); avg != 0 {
			t.Errorf("%s: Quantile allocates %.2f times per call, want 0", rep, avg)
		}
		if avg := testing.AllocsPerRun(20, func() { h.Merge(other) }); avg != 0 {
			t.Errorf("%s: Merge allocates %.2f times per call, want 0", rep, avg)
		}
		if small := h.counts == nil; small != (rep == "small") {
			t.Fatalf("%s: histogram left its representation mid-measurement (%d samples)", rep, h.Count())
		}
	}
}

func BenchmarkLogHistAdd(b *testing.B) {
	h := histOf(nil, true) // the steady state of any long run
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
