package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The 256 MiB device at the scale grid's fill: 65,536 physical pages,
// 61,248 user pages at 7% OP, three quarters of them live.
const (
	modelTotal = 65536
	modelLive  = 45936
)

func TestGreedyWAF(t *testing.T) {
	for _, c := range []struct {
		total, live int64
		k           int
		want        float64
	}{
		{modelTotal, modelLive, 8, 1.579},
		{modelTotal, modelLive, 32, 1.796},
		{modelTotal, modelLive, 128, 1.859},
		{100, 0, 128, 1},    // nothing live
		{100, 10, 1, 1},     // one page per block: every victim is empty
		{1000, 10, 128, 1},  // so much spare that greedy always finds an empty block
		{100, 100, 128, -1}, // no spare: unbounded
		{50, 100, 128, -1},
	} {
		got := GreedyWAF(c.total, c.live, c.k)
		if c.want < 0 {
			if !math.IsInf(got, 1) {
				t.Errorf("GreedyWAF(%d, %d, %d) = %v, want +Inf", c.total, c.live, c.k, got)
			}
			continue
		}
		if math.Abs(got-c.want) > 5e-4 {
			t.Errorf("GreedyWAF(%d, %d, %d) = %.4f, want %.3f", c.total, c.live, c.k, got, c.want)
		}
	}
}

// TestGreedyWAFAtTrimmedSpareFactor pins the trim validation sweep's
// references: a trimmed fraction q of the 52,060-page working set (85% of
// user capacity) enters as the live footprint round((1-q)·ws).
func TestGreedyWAFAtTrimmedSpareFactor(t *testing.T) {
	const ws = 52060
	for _, c := range []struct{ q, want float64 }{
		{0, 2.5795}, {0.15, 1.7350}, {0.30, 1.356}, {0.45, 1.155},
	} {
		live := int64(math.Round((1 - c.q) * ws))
		if got := GreedyWAF(modelTotal, live, 128); math.Abs(got-c.want) > 5e-4 {
			t.Errorf("q=%.2f: GreedyWAF(%d, %d, 128) = %.4f, want %.4f", c.q, modelTotal, live, got, c.want)
		}
	}
}

// TestWAFModelsFallAsLivePagesShrink checks the model's shape at 8, 32 and
// 128 pages per block: it falls as TRIM shrinks the live footprint, and at
// each footprint it rises with the block size, whose larger blocks narrow
// the valid-count spread and fill greedy's victim.
func TestWAFModelsFallAsLivePagesShrink(t *testing.T) {
	prevK := make([]float64, 7)
	for _, k := range []int{8, 32, 128} {
		prev := math.Inf(1)
		for i, q := range []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3} {
			got := GreedyWAF(modelTotal, int64(math.Round((1-q)*modelLive)), k)
			if got >= prev || got <= 1 {
				t.Errorf("k=%d q=%v: WAF %v after %v", k, q, got, prev)
			}
			if got <= prevK[i] {
				t.Errorf("k=%d q=%v: WAF %v not above %v at fewer pages per block", k, q, got, prevK[i])
			}
			prev, prevK[i] = got, got
		}
	}
}

// TestGreedyWAFMeanFieldLimit checks the large-block limit: as k grows the
// model tends to the mean-field fixed point α = exp(−(T/U)(1−α)),
// WAF = 1/(1−α).
func TestGreedyWAFMeanFieldLimit(t *testing.T) {
	for _, live := range []int64{30000, modelLive, 58000} {
		sf := float64(modelTotal) / float64(live)
		alpha := 0.5
		for i := 0; i < 1000; i++ {
			alpha = math.Exp(-sf * (1 - alpha))
		}
		want := 1 / (1 - alpha)
		if got := GreedyWAF(modelTotal, live, 1<<14); math.Abs(got/want-1) > 1e-3 {
			t.Errorf("live=%d: GreedyWAF at k=2^14 = %.4f, mean-field %.4f", live, got, want)
		}
	}
}

// TestGreedyWAFMatchesIdealizedGreedy holds the model within 2% of an
// idealized greedy simulation: blocks of k pages, uniform random overwrites
// of the live pages, the minimum-valid block collected whenever the free
// pool runs out.
func TestGreedyWAFMatchesIdealizedGreedy(t *testing.T) {
	for _, k := range []int{8, 32, 128} {
		sim := idealGreedyWAF(modelTotal, modelLive, k, 1)
		model := GreedyWAF(modelTotal, modelLive, k)
		t.Logf("k=%d: simulated %.4f, model %.4f", k, sim, model)
		if math.Abs(sim/model-1) > 0.02 {
			t.Errorf("k=%d: simulated WAF %.4f, model %.4f: off by more than 2%%", k, sim, model)
		}
	}
}

// idealGreedyWAF simulates greedy GC with nothing but valid counts: it
// fills the live pages in order, mixes two passes of uniform overwrites and
// returns the WAF of a third. Host writes and migrations share one write
// frontier; closed blocks sit in buckets by valid count, so the
// minimum-valid victim is found without a scan.
func idealGreedyWAF(total, live int64, k int, seed int64) float64 {
	nblocks := int32(total / int64(k))
	l2p := make([]int32, live)
	for i := range l2p {
		l2p[i] = -1
	}
	p2l := make([]int32, total)
	valid := make([]int, nblocks)
	buckets := make([][]int32, k+1) // closed blocks by valid count
	slot := make([]int, nblocks)    // a closed block's index in its bucket
	free := make([]int32, nblocks)
	for b := range free {
		free[b] = int32(b)
	}
	open, victim, next := int32(-1), int32(-1), k
	var programs int64

	put := func(b int32) {
		slot[b] = len(buckets[valid[b]])
		buckets[valid[b]] = append(buckets[valid[b]], b)
	}
	drop := func(b int32) {
		s := buckets[valid[b]]
		last := s[len(s)-1]
		s[slot[b]], slot[last] = last, slot[b]
		buckets[valid[b]] = s[:len(s)-1]
	}
	place := func(lpn int32) {
		if next == k {
			if open >= 0 {
				put(open)
			}
			open, free, next = free[len(free)-1], free[:len(free)-1], 0
		}
		if old := l2p[lpn]; old >= 0 {
			b := old / int32(k)
			if b != open && b != victim {
				drop(b)
				valid[b]--
				put(b)
			} else {
				valid[b]--
			}
		}
		p := open*int32(k) + int32(next)
		l2p[lpn], p2l[p] = p, lpn
		valid[open]++
		next++
		programs++
	}
	write := func(lpn int32) {
		place(lpn)
		for len(free) < 2 {
			for v := 0; victim < 0; v++ {
				if n := len(buckets[v]); n > 0 {
					victim = buckets[v][n-1]
				}
			}
			drop(victim)
			for p := victim * int32(k); p < (victim+1)*int32(k); p++ {
				if l := p2l[p]; l2p[l] == p {
					place(l)
				}
			}
			free = append(free, victim)
			victim = -1
		}
	}

	for lpn := int32(0); lpn < int32(live); lpn++ {
		write(lpn)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := int64(0); i < 2*live; i++ {
		write(int32(rng.Int63n(live)))
	}
	programs = 0
	for i := int64(0); i < live; i++ {
		write(int32(rng.Int63n(live)))
	}
	return float64(programs) / float64(live)
}

func TestTableInfoRendering(t *testing.T) {
	tb := Table{Title: "T", Columns: []string{"a"}}
	tb.AddRow("1")
	tb.AddInfo("latency percentiles are streaming (%d samples)", 5)
	s := tb.String()
	if want := "note: latency percentiles are streaming (5 samples)\n"; !strings.Contains(s, want) {
		t.Errorf("rendered table missing info note:\n%s", s)
	}
	if strings.Contains(s, "warning:") {
		t.Errorf("info note rendered as warning:\n%s", s)
	}
}
