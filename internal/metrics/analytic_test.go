package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestGreedyWAF(t *testing.T) {
	cases := []struct {
		total, live int64
		want        float64
	}{
		{100, 50, 1.0},              // ρ=1 → (1+1)/2 = 1
		{107, 100, 7.642857},        // paper's 7% OP, full
		{0, 0, 1},                   // degenerate
		{100, 100, 1},               // no spare
		{100, 0, 1},                 // nothing live
		{200, 150, 1.0 + 2.0/3.0/2}, // ρ=1/3 → (4/3)/(2/3)=2 … checked below
	}
	for _, c := range cases[:5] {
		if got := GreedyWAF(c.total, c.live); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("GreedyWAF(%d, %d) = %v, want %v", c.total, c.live, got, c.want)
		}
	}
	if got := GreedyWAF(200, 150); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("GreedyWAF(200, 150) = %v, want 2", got)
	}
}

// TestGreedyWAFAtTrimmedSpareFactor checks the TRIM substitution: a
// trimmed fraction q of a ws-page working set enters GreedyWAF as the
// smaller live footprint (1-q)·ws, whose spare factor only grows with q.
func TestGreedyWAFAtTrimmedSpareFactor(t *testing.T) {
	// No trim: ρ = 7/100, the plain spare factor.
	if got, want := GreedyWAF(107, 100), (1+0.07)/(2*0.07); math.Abs(got-want) > 1e-12 {
		t.Errorf("GreedyWAF(107, 100) = %v, want %v", got, want)
	}
	// 30% trimmed: live = 70, ρ = 37/70.
	if got, want := GreedyWAF(107, 70), (1+37.0/70)/(2*37.0/70); math.Abs(got-want) > 1e-12 {
		t.Errorf("GreedyWAF(107, 70) = %v, want %v", got, want)
	}
	if got := GreedyWAF(50, 100); got != 1 {
		t.Errorf("GreedyWAF with live beyond total = %v, want 1", got)
	}
	// TRIM only ever lowers the amplification.
	for _, q := range []float64{0, 0.1, 0.2, 0.4, 0.6} {
		live := int64(math.Round((1 - q) * 100))
		if GreedyWAF(107, live) > GreedyWAF(107, 100) {
			t.Errorf("GreedyWAF rose at q=%v", q)
		}
	}
}

func TestMeanFieldWAF(t *testing.T) {
	// Sf = 2: α = exp(-2(1-α)) → α ≈ 0.2032, WA ≈ 1.255.
	if got := MeanFieldWAF(100, 50); math.Abs(got-1.255) > 0.005 {
		t.Errorf("MeanFieldWAF(100, 50) = %v, want ≈1.255", got)
	}
	if got := MeanFieldWAF(100, 100); got != 1 {
		t.Errorf("MeanFieldWAF with no spare = %v, want 1", got)
	}
	if got := MeanFieldWAF(0, 0); got != 1 {
		t.Errorf("degenerate MeanFieldWAF = %v, want 1", got)
	}
	// Mean-field (random selection) must upper-bound greedy everywhere.
	for _, live := range []int64{50, 75, 90, 100} {
		total := int64(107)
		if live >= total {
			continue
		}
		g, m := GreedyWAF(total, live), MeanFieldWAF(total, live)
		if m < g {
			t.Errorf("live=%d: mean-field %v below greedy %v", live, m, g)
		}
	}
}

// TestWAFModelsFallAsLivePagesShrink sweeps a TRIM-style shrinking live
// footprint: both models fall monotonically, never below 1, and greedy
// stays at or below mean-field throughout.
func TestWAFModelsFallAsLivePagesShrink(t *testing.T) {
	const total, ws = 65536, 55000
	prevG, prevM := math.Inf(1), math.Inf(1)
	for _, q := range []float64{0, 0.1, 0.15, 0.2, 0.3, 0.45, 0.6} {
		live := int64(math.Round((1 - q) * ws))
		g, m := GreedyWAF(total, live), MeanFieldWAF(total, live)
		if g > prevG || m > prevM {
			t.Errorf("q=%v: greedy %v (was %v) or mean-field %v (was %v) rose", q, g, prevG, m, prevM)
		}
		if g > m {
			t.Errorf("q=%v: bracket inverted [%v, %v]", q, g, m)
		}
		if g < 1 || m < 1 {
			t.Errorf("q=%v: bracket below 1 [%v, %v]", q, g, m)
		}
		prevG, prevM = g, m
	}
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
