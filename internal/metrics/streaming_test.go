package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/telemetry"
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

// TestPercentileOracle checks exact-mode percentiles against a sorted copy
// of everything added so far, with queries interleaved between Adds so the
// in-place sort is re-done over samples it has already ordered.
func TestPercentileOracle(t *testing.T) {
	ps := []float64{0, 1, 50, 90, 99, 99.9, 99.99, 100}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20001)
		var l LatencyRecorder
		var all []time.Duration
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
			if rng.Intn(4) == 0 && i > 0 {
				d = all[rng.Intn(i)] // repeats
			}
			l.Add(d)
			all = append(all, d)
			if rng.Intn(n/8+1) != 0 && i != n-1 {
				continue
			}
			want := slices.Clone(all)
			slices.Sort(want)
			for _, p := range ps {
				idx := int(math.Ceil(p/100*float64(len(want)))) - 1
				idx = max(0, min(idx, len(want)-1))
				if got := l.Percentile(p); got != want[idx] {
					t.Logf("seed %d: p%v after %d of %d samples = %v, want %v", seed, p, i+1, n, got, want[idx])
					return false
				}
			}
		}
		return l.Count() == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLatencyRecorderGrowsByDoubling: an exact recorder that was never
// reserved takes n samples in at most ⌈log₂(n/256)⌉ + 1 allocations. The
// count is the least of a few trials, since whatever else the runtime
// allocates meanwhile only adds to it, and collections are off while it is
// taken, since each would add a few of its own.
func TestLatencyRecorderGrowsByDoubling(t *testing.T) {
	for _, n := range []int{1, 256, 257, 1000, 100_000} {
		got := math.MaxInt
		for trial := 0; trial < 5; trial++ {
			var l LatencyRecorder
			var before, after runtime.MemStats
			gc := debug.SetGCPercent(-1)
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				l.Add(time.Duration(i))
			}
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gc)
			got = min(got, int(after.Mallocs-before.Mallocs))
			if l.Count() != n || l.Percentile(100) != time.Duration(n-1) {
				t.Fatalf("%d samples: count %d, max %v", n, l.Count(), l.Percentile(100))
			}
		}
		if want := 1 + max(0, int(math.Ceil(math.Log2(float64(n)/minSamples)))); got > want {
			t.Errorf("%d samples took %d allocations, want ≤ %d", n, got, want)
		}
	}
}

// cachedRecorder returns a 200k-sample exact recorder whose samples are
// already sorted — the state every repeated percentile query sees.
func cachedRecorder() *LatencyRecorder {
	l := &LatencyRecorder{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		l.Add(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
	}
	l.Percentile(99) // sort once
	return l
}

// TestPercentileCachedZeroAlloc: a repeated percentile query on an unchanged
// recorder reads the sorted samples — no re-sort, no allocation.
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
	if stream.samples != nil {
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

// tick emits what a simulator emits at one write-back tick: the policy's
// decision, then the stats snapshot.
func tick(tr *telemetry.Tracer, p TimelinePoint) {
	tr.FlushDecision(p.T, p.FreeBytes, p.ReclaimBytes, p.PredictedBytes, p.IdleFraction)
	tr.Snapshot(p.T, p.FreeBytes, p.DirtyPages, p.WAF, p.FGCInvocations, p.BGCCollections, 0)
}

// TestMergeTimelines feeds a TimelineSink the per-tick events of two
// devices, one of which reports a tick the other does not, and checks the
// per-device timelines and the merge keyed by tick.
func TestMergeTimelines(t *testing.T) {
	dev0 := []TimelinePoint{
		{T: time.Second, FreeBytes: 100, DirtyPages: 1, WAF: 1.0, FGCInvocations: 1, ReclaimBytes: 10, IdleFraction: 0.2},
		{T: 2 * time.Second, FreeBytes: 90, DirtyPages: 2, WAF: 1.2},
	}
	dev1 := []TimelinePoint{
		{T: time.Second, FreeBytes: 200, DirtyPages: 3, WAF: 2.0, BGCCollections: 4, PredictedBytes: 20, IdleFraction: 0.6},
		{T: 2 * time.Second, FreeBytes: 80, DirtyPages: 4, WAF: 1.4},
		{T: 3 * time.Second, FreeBytes: 70, WAF: 1.6, IdleFraction: 0.5}, // dev0 is gone by now
	}
	sink := &TimelineSink{}
	if got := sink.Merged(); got != nil {
		t.Fatalf("empty sink merged to %v, want nil", got)
	}
	tr := telemetry.New(sink)
	// Device 1 reports first at every tick; the merge must not care.
	for i := range dev1 {
		tick(tr.WithDevice(1), dev1[i])
		tr.Request(dev1[i].T, "W", 0, 1, time.Millisecond)
		tr.GCStart(dev1[i].T, false, 3, 1, 0)
		if i < len(dev0) {
			tick(tr.WithDevice(0), dev0[i])
		}
	}
	if err := tr.Sink().Close(); err != nil {
		t.Fatal(err)
	}

	per := sink.PerDevice()
	if len(per) != 2 || !slices.Equal(per[0], dev0) || !slices.Equal(per[1], dev1) {
		t.Fatalf("per-device timelines = %+v, want dev0 %+v and dev1 %+v", per, dev0, dev1)
	}
	per[0][0].FreeBytes = -1
	if sink.PerDevice()[0][0].FreeBytes != 100 {
		t.Error("PerDevice returned the sink's own storage")
	}

	m := sink.Merged()
	if len(m) != 3 {
		t.Fatalf("merged length = %d, want 3 (one per reported tick)", len(m))
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
	if m[2] != dev1[2] {
		t.Errorf("tick only device 1 reported merged to %+v, want its own %+v", m[2], dev1[2])
	}
}

// TestTimelineSinkConcurrent has devices emit their ticks from their own
// goroutines, as grid cells sharing one sink do; run it under -race.
func TestTimelineSinkConcurrent(t *testing.T) {
	const devs, ticks = 4, 200
	sink := &TimelineSink{}
	tr := telemetry.New(sink)
	var wg sync.WaitGroup
	for d := 0; d < devs; d++ {
		wg.Add(1)
		go func(tr *telemetry.Tracer) {
			defer wg.Done()
			for k := 1; k <= ticks; k++ {
				tick(tr, TimelinePoint{T: time.Duration(k) * time.Second, FreeBytes: 1, WAF: 1})
			}
		}(tr.WithDevice(d))
	}
	wg.Wait()
	m := sink.Merged()
	if len(m) != ticks {
		t.Fatalf("merged %d ticks, want %d", len(m), ticks)
	}
	for i, p := range m {
		if p.T != time.Duration(i+1)*time.Second || p.FreeBytes != devs || p.WAF != 1 {
			t.Fatalf("merged tick %d = %+v, want T %ds, FreeBytes %d, WAF 1", i, p, i+1, devs)
		}
	}
}

// TestBound: after Bound(n) an exact recorder takes n samples without
// allocating, and its tail answers come out as a sort of every sample gives
// them, the one it had before the bound included; a streaming recorder
// retains no samples, so Bound leaves it as it was.
func TestBound(t *testing.T) {
	var l LatencyRecorder
	l.Add(7 * time.Millisecond)
	const n = 1000
	l.Bound(n)
	if avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < n/2; i++ { // AllocsPerRun calls this twice
			l.Add(time.Duration(i))
		}
	}); avg != 0 {
		t.Errorf("Add after Bound allocates %.0f times over the bounded samples, want 0", avg)
	}
	// Sorted, the samples are 0…499 ns twice each, then 7 ms.
	if l.Count() != n+1 || l.Percentile(100) != 7*time.Millisecond ||
		l.Percentile(99.9) != 499 || l.Percentile(99) != 495 {
		t.Errorf("count %d, p100 %v, p99.9 %v, p99 %v; want %d, 7ms, 499ns, 495ns",
			l.Count(), l.Percentile(100), l.Percentile(99.9), l.Percentile(99), n+1)
	}
	if len(l.samples) > 2*(n/100+2) {
		t.Errorf("bounded recorder retains %d samples, want ≤ %d", len(l.samples), 2*(n/100+2))
	}

	// Bounds add up until a sample is dropped.
	var two LatencyRecorder
	two.Bound(n / 2)
	two.Bound(n / 2)
	for i := 0; i < n; i++ {
		two.Add(time.Duration(i))
	}
	if cap(two.samples) != 2*(n/100+2) || two.Percentile(99) != 989 {
		t.Errorf("two bounds of %d: capacity %d, p99 %v; want %d and 989ns", n/2, cap(two.samples), two.Percentile(99), 2*(n/100+2))
	}

	s := NewStreamingLatencyRecorder()
	s.Add(7 * time.Millisecond)
	before := s.Hist().FootprintBytes()
	s.Bound(1 << 20)
	if s.samples != nil || s.Hist().FootprintBytes() != before || s.Count() != 1 {
		t.Errorf("Bound changed a streaming recorder: %d samples, footprint %d → %d",
			len(s.samples), before, s.Hist().FootprintBytes())
	}
	s.Add(time.Millisecond) // streaming recorders count past any bound
}

// TestBoundContract: a bounded recorder panics rather than answer wrong —
// on an Add past its bound, on a percentile below the tail it retained, and
// on a new bound once it has dropped what a larger tail would need.
func TestBoundContract(t *testing.T) {
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one naming %q", what, msg, want)
			}
		}()
		f()
	}
	full := func() *LatencyRecorder {
		l := &LatencyRecorder{}
		l.Bound(1000)
		for i := 0; i < 1000; i++ {
			l.Add(time.Duration(i))
		}
		return l
	}
	mustPanic("Add past the bound", "Bound of 1000", func() { full().Add(0) })
	mustPanic("Percentile(50) after a cut", "retained tail", func() { full().Percentile(50) })
	mustPanic("Bound after a cut", "retained tail", func() { full().Bound(1) })

	var small LatencyRecorder // no cut yet: every sample is still there
	small.Bound(1000)
	for i := 0; i < 2*(1000/100+2); i++ {
		small.Add(time.Duration(i))
	}
	if got := small.Percentile(50); got != 11 {
		t.Errorf("p50 before any cut = %v, want 11ns", got)
	}
}

// TestBoundedPercentileOracle checks a bounded recorder's tail against a
// sorted copy of everything added so far. Each recorder is bounded at a
// random N, some after a few unbounded samples, and takes n ≤ N samples
// drawn from a small pool of values, so the floor sits on long runs of
// ties; queries come between Adds, as Results may be read mid-run.
func TestBoundedPercentileOracle(t *testing.T) {
	ps := []float64{99, 99.9, 99.99, 100}
	prop := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("seed %d: %v", seed, r)
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		bound := 1 + rng.Intn(20000)
		n := bound
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(bound)
		}
		pool := make([]time.Duration, 1+rng.Intn(64))
		for i := range pool {
			pool[i] = time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		}
		var l LatencyRecorder
		var all []time.Duration
		early := rng.Intn(min(n, 300)) // samples added before the bound
		peak := 0                      // most samples retained at once
		for i := 0; i < n; i++ {
			if i == early {
				l.Bound(bound - early)
			}
			d := pool[rng.Intn(len(pool))]
			l.Add(d)
			all = append(all, d)
			peak = max(peak, len(l.samples))
			if rng.Intn(n/8+1) != 0 && i != n-1 {
				continue
			}
			want := slices.Clone(all)
			slices.Sort(want)
			for _, p := range ps {
				idx := int(math.Ceil(p/100*float64(len(want)))) - 1
				idx = max(0, min(idx, len(want)-1))
				if got := l.Percentile(p); got != want[idx] {
					t.Logf("seed %d: p%v after %d of %d samples (bound %d) = %v, want %v",
						seed, p, i+1, n, bound, got, want[idx])
					return false
				}
			}
		}
		if keep := bound/100 + 2; peak > max(early, 2*keep) {
			t.Logf("seed %d: retained %d samples under bound %d, want ≤ %d", seed, peak, bound, max(early, 2*keep))
			return false
		}
		return l.Count() == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBoundedTailCoversP99: for every count n up to 10⁶, the samples at or
// above the p99 order statistic — n − idx, with idx computed in float64 as
// Percentile computes it — number at most ⌊n/100⌋+2, the least tail a
// recorder bounded at N ≥ n keeps after a cut.
func TestBoundedTailCoversP99(t *testing.T) {
	for _, p := range []float64{99, 99.9, 99.99} {
		for n := 1; n <= 1_000_000; n++ {
			idx := max(0, int(math.Ceil(p/100*float64(n)))-1)
			if n-idx > n/100+2 {
				t.Fatalf("p%v of %d samples reads %d from the top, more than ⌊n/100⌋+2 = %d", p, n, n-idx, n/100+2)
			}
		}
	}
}

// TestBoundedRecorderMemory: a recorder bounded at 10⁶ samples makes one
// allocation of 2·(10⁴+2) samples, about 160 KiB where retaining all of
// them takes 8 MB, and none in the 10⁶ Adds after it.
func TestBoundedRecorderMemory(t *testing.T) {
	const n = 1_000_000
	const want = 2 * (n/100 + 2) * 8
	bound, adds := math.MaxInt, math.MaxInt
	var bytes uint64
	for trial := 0; trial < 3; trial++ {
		var l LatencyRecorder
		var before, mid, after runtime.MemStats
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&before)
		l.Bound(n)
		runtime.ReadMemStats(&mid)
		x := uint64(trial + 1)
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			l.Add(time.Duration(x >> 44)) // up to ~1 ms, with ties
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		bound = min(bound, int(mid.Mallocs-before.Mallocs))
		adds = min(adds, int(after.Mallocs-mid.Mallocs))
		bytes = mid.TotalAlloc - before.TotalAlloc
		if l.Count() != n || cap(l.samples) != 2*(n/100+2) {
			t.Fatalf("count %d, capacity %d; want %d and %d", l.Count(), cap(l.samples), n, 2*(n/100+2))
		}
	}
	if bound != 1 || adds != 0 {
		t.Errorf("Bound made %d allocations and %d Adds %d; want 1 and 0", bound, n, adds)
	}
	if bytes > want+8<<10 { // a large allocation rounds up to whole 8 KiB pages
		t.Errorf("Bound(%d) allocated %d B, want ≤ %d B", n, bytes, want+8<<10)
	}
}
