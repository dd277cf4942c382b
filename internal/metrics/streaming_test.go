package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestTableAlignsMultibyteCells is the regression test for the byte-vs-rune
// column width bug: a column whose widest cell renders microseconds contains
// the two-byte µ rune, and byte-measured widths over-pad every such cell,
// pushing the column out of alignment with its separator row.
func TestTableAlignsMultibyteCells(t *testing.T) {
	tb := Table{Columns: []string{"p99 (µs)", "IOPS"}}
	tb.AddRow("999µs", "100")
	tb.AddRow("1.2ms", "90000")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Every row must start its second column at the same rune offset: the
	// rune width of the widest first-column cell plus the two-space gap.
	wantCol2 := len([]rune("p99 (µs)")) + 2
	for i, want := range []string{"IOPS", "-----", "100", "90000"} {
		runes := []rune(lines[i])
		if len(runes) < wantCol2 || !strings.HasPrefix(string(runes[wantCol2:]), want) {
			t.Errorf("line %d: second column %q not at rune offset %d: %q", i, want, wantCol2, lines[i])
		}
	}
	// The separator under the µ column is as wide as its rune count.
	if !strings.HasPrefix(lines[1], strings.Repeat("-", len([]rune("p99 (µs)")))+"  ") {
		t.Errorf("separator row misaligned: %q", lines[1])
	}
}

// TestPercentileCache pins the re-sort fix: the sorted order is built on the
// first query, reused on the next, and invalidated by Add.
func TestPercentileCache(t *testing.T) {
	var l LatencyRecorder
	for i := 100; i > 0; i-- {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	if l.sorted != nil {
		t.Fatal("cache populated before any query")
	}
	if got := l.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if l.sorted == nil {
		t.Fatal("cache not populated by query")
	}
	first := &l.sorted[0]
	if got := l.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if &l.sorted[0] != first {
		t.Error("second query rebuilt the sorted slice")
	}
	l.Add(time.Millisecond / 2)
	if !l.sortedStale {
		t.Fatal("Add did not invalidate the cache")
	}
	if got := l.Percentile(0); got != time.Millisecond/2 {
		t.Errorf("p0 after invalidation = %v, cache is stale", got)
	}
	// Invalidation keeps the backing array: a cold re-query at unchanged
	// sample count refills the existing buffer instead of reallocating.
	refill := &l.sorted[0]
	l.sortedStale = true
	if got := l.Percentile(0); got != time.Millisecond/2 {
		t.Errorf("p0 after refill = %v", got)
	}
	if &l.sorted[0] != refill {
		t.Error("cold re-query reallocated the sorted buffer")
	}
	// The arrival-order samples are untouched by the cached sort.
	if s := l.Samples(); s[0] != 100*time.Millisecond {
		t.Errorf("samples reordered: first = %v", s[0])
	}
}

// cachedRecorder returns a 200k-sample exact recorder whose sorted cache is
// already built — the state every repeated percentile query sees.
func cachedRecorder() *LatencyRecorder {
	l := &LatencyRecorder{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		l.Add(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
	}
	l.Percentile(99) // build the cache once
	return l
}

// TestPercentileCachedZeroAlloc: a repeated percentile query on an unchanged
// recorder reads the cache — no re-sort, no allocation.
func TestPercentileCachedZeroAlloc(t *testing.T) {
	l := cachedRecorder()
	if avg := testing.AllocsPerRun(100, func() {
		l.Percentile(99)
		l.Percentile(99.9)
	}); avg != 0 {
		t.Errorf("cached Percentile allocates %.2f times per pair of queries, want 0", avg)
	}
}

// BenchmarkPercentileRepeated is the time side of the same claim: O(1)-ish
// per query instead of BenchmarkPercentileColdSort's O(n log n).
func BenchmarkPercentileRepeated(b *testing.B) {
	l := cachedRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Percentile(99)
		l.Percentile(99.9)
	}
}

// BenchmarkPercentileColdSort is the contrast case: invalidating the cache
// each iteration pays the full sort.
func BenchmarkPercentileColdSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 20000)
	for i := range samples {
		samples[i] = time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var l LatencyRecorder
		for _, s := range samples {
			l.Add(s)
		}
		l.Percentile(99)
	}
}

func TestStreamingLatencyRecorder(t *testing.T) {
	exact := &LatencyRecorder{}
	stream := NewStreamingLatencyRecorder()
	if !stream.Streaming() || exact.Streaming() {
		t.Fatal("mode flags wrong")
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50000; i++ {
		d := time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
		exact.Add(d)
		stream.Add(d)
	}
	if stream.Samples() != nil {
		t.Error("streaming mode retained samples")
	}
	if stream.Count() != exact.Count() || stream.Mean() != exact.Mean() || stream.Max() != exact.Max() {
		t.Errorf("count/mean/max diverged: %d/%v/%v vs %d/%v/%v",
			stream.Count(), stream.Mean(), stream.Max(), exact.Count(), exact.Mean(), exact.Max())
	}
	for _, p := range []float64{50, 90, 99, 99.9, 100} {
		e, s := exact.Percentile(p), stream.Percentile(p)
		tol := time.Duration(stream.Hist().WidthAt(int64(e)))
		if d := s - e; d < 0 || d > tol {
			t.Errorf("p%v: streaming %v vs exact %v, off by %v (tolerance %v)", p, s, e, s-e, tol)
		}
	}

	// Mergeability across array members: two streams merge into the same
	// histogram a single recorder over the union would build.
	a, b, both := NewStreamingLatencyRecorder(), NewStreamingLatencyRecorder(), NewStreamingLatencyRecorder()
	for i := 0; i < 1000; i++ {
		d := time.Duration(rng.Int63n(int64(time.Millisecond)))
		if i%2 == 0 {
			a.Add(d)
		} else {
			b.Add(d)
		}
		both.Add(d)
	}
	a.Hist().Merge(b.Hist())
	for _, q := range []float64{0.5, 0.99} {
		if a.Hist().Quantile(q) != both.Hist().Quantile(q) {
			t.Errorf("merged quantile %v diverged from combined", q)
		}
	}
}

func TestMergeTimelines(t *testing.T) {
	per := [][]TimelinePoint{
		{
			{T: time.Second, FreeBytes: 100, DirtyPages: 1, WAF: 1.0, FGCInvocations: 1, ReclaimBytes: 10, IdleFraction: 0.2},
			{T: 2 * time.Second, FreeBytes: 90, DirtyPages: 2, WAF: 1.2},
		},
		{
			{T: time.Second, FreeBytes: 200, DirtyPages: 3, WAF: 2.0, BGCCollections: 4, PredictedBytes: 20, IdleFraction: 0.6},
			{T: 2 * time.Second, FreeBytes: 80, DirtyPages: 4, WAF: 1.4},
			{T: 3 * time.Second}, // extra trailing tick is dropped
		},
	}
	m := MergeTimelines(per)
	if len(m) != 2 {
		t.Fatalf("merged length = %d, want 2 (shortest member)", len(m))
	}
	p := m[0]
	if p.T != time.Second || p.FreeBytes != 300 || p.DirtyPages != 4 ||
		p.FGCInvocations != 1 || p.BGCCollections != 4 ||
		p.ReclaimBytes != 10 || p.PredictedBytes != 20 {
		t.Errorf("summed fields wrong: %+v", p)
	}
	if p.WAF != 1.5 || p.IdleFraction != 0.4 {
		t.Errorf("averaged fields wrong: WAF=%v idle=%v", p.WAF, p.IdleFraction)
	}
	if MergeTimelines(nil) != nil {
		t.Error("empty input should merge to nil")
	}
}

// TestReserve: after Reserve(n) an exact recorder takes n samples without
// allocating and keeps the ones it had; a streaming recorder retains no
// samples, so Reserve leaves it as it was.
func TestReserve(t *testing.T) {
	var l LatencyRecorder
	l.Add(7 * time.Millisecond)
	const n = 1000
	l.Reserve(n)
	if avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < n/2; i++ { // AllocsPerRun calls this twice
			l.Add(time.Duration(i))
		}
	}); avg != 0 {
		t.Errorf("Add after Reserve allocates %.0f times over the reserved samples, want 0", avg)
	}
	if s := l.Samples(); len(s) != n+1 || s[0] != 7*time.Millisecond || l.Count() != n+1 {
		t.Errorf("%d samples (count %d), first %v; want %d starting with 7ms", len(s), l.Count(), s[0], n+1)
	}

	s := NewStreamingLatencyRecorder()
	s.Add(7 * time.Millisecond)
	before := s.Hist().FootprintBytes()
	s.Reserve(1 << 20)
	if s.Samples() != nil || s.Hist().FootprintBytes() != before || s.Count() != 1 {
		t.Errorf("Reserve changed a streaming recorder: %d samples, footprint %d → %d",
			len(s.Samples()), before, s.Hist().FootprintBytes())
	}
}
