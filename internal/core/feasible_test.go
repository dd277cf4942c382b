package core

import (
	"math/rand/v2"
	"testing"
	"time"
)

// idleCapacity is how much background GC can reclaim during an interval of
// length period that also writes demand bytes: the idle time the interval
// has left once the device has written its demand, cap_k = (idleFrac·p −
// D_k/B_w)·B_gc, never negative.
func idleCapacity(demand int64, period time.Duration, bw, bgc, idleFrac float64) int64 {
	return int64(max(idleFrac*period.Seconds()-float64(demand)/bw, 0) * bgc)
}

// latestFeasible is the as-late-as-possible reference for Schedule: the
// least free space to reclaim during the coming interval so that every
// interval of the horizon can still be served from free space and
// background reclaim alone. Going backward over the horizon, the free space
// interval k needs at its start is
//
//	L_k = max(0, L_{k+1} + D_k − cap_k),  L_N = 0,
//
// with cap_k the interval's idleCapacity; interval 0 must leave L_1 behind,
// so the reclaim now is max(0, L_1 + D_0 − cfree). Anything less is a
// foreground collection later in the horizon even if background GC runs
// flat out from the next tick on; anything more is reclaimed earlier than
// it has to be. A result above cap_0 means the horizon is already
// infeasible.
func latestFeasible(demand []int64, cfree int64, period time.Duration, bw, bgc, idleFrac float64) int64 {
	if len(demand) == 0 {
		return 0
	}
	var need int64 // L_{k+1}
	for k := len(demand) - 1; k >= 1; k-- {
		need = max(0, need+demand[k]-idleCapacity(demand[k], period, bw, bgc, idleFrac))
	}
	return max(0, need+demand[0]-cfree)
}

// fluidWindowFGC is the foreground collection left in demand's horizon when
// the coming interval reclaims reclaim (at most its idle capacity) and every
// later interval reclaims all its idle time allows: the best any later
// schedule can do, so 0 exactly when the horizon is still feasible.
func fluidWindowFGC(demand []int64, cfree, reclaim int64, period time.Duration, bw, bgc float64) int64 {
	var fgc int64
	free := cfree
	for k, d := range demand {
		bg := idleCapacity(d, period, bw, bgc, 1)
		if k == 0 {
			bg = min(reclaim, bg)
		}
		if free += bg - d; free < 0 {
			fgc -= free
			free = 0
		}
	}
	return fgc
}

// The fluid model the JIT rule is checked in: write-back interval p, a
// horizon of N_wb intervals, the paper's Fig. 6 bandwidths, and every
// stream starting from Fig. 6's C_free.
const (
	fluidPeriod    = 5 * time.Second
	fluidNwb       = 6
	fluidBw        = 40 * mb
	fluidBgc       = 10 * mb
	fluidStreams   = 2000
	fluidTicks     = 60 // every tick sees a full horizon of a 66-interval stream
	fluidStartFree = 50 * mb
)

// fluidStream draws one seeded stream of per-interval write volumes: a
// quarter of the intervals burst to U[0, burst), the rest draw U[0, 10 MB).
func fluidStream(seed uint64, burst float64) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	out := make([]int64, fluidTicks+fluidNwb)
	for i := range out {
		hi := 10 * mb
		if rng.IntN(4) == 0 {
			hi = burst
		}
		out[i] = int64(rng.Float64() * hi)
	}
	return out
}

// fluidTotals is what one rule leaves over a set of streams, in bytes:
// foreground collection, background reclaim, and the free space it held at
// the start of a tick, summed over ticks.
type fluidTotals struct{ fgc, reclaim, free int64 }

// fluidRule is a scheduling rule seen through the fluid model: given the
// horizon's demand and the free space now, the bytes to reclaim during the
// coming interval.
type fluidRule func(window []int64, cfree int64) int64

// runFluid drives rule closed-loop over stream: at each tick it asks the
// rule for a reclaim, runs as much of it as the interval's idle time allows
// in the background, writes the interval's demand, and counts any shortfall
// as foreground collection. check, if set, sees every decision.
func runFluid(stream []int64, rule fluidRule, check func(window []int64, cfree, reclaim int64)) fluidTotals {
	var tot fluidTotals
	free := int64(fluidStartFree)
	for k := 0; k < fluidTicks; k++ {
		window := stream[k : k+fluidNwb]
		r := rule(window, free)
		if check != nil {
			check(window, free, r)
		}
		bg := min(max(r, 0), idleCapacity(window[0], fluidPeriod, fluidBw, fluidBgc, 1))
		tot.free += free
		tot.reclaim += bg
		if free += bg - window[0]; free < 0 {
			tot.fgc -= free
			free = 0
		}
	}
	return tot
}

// TestLatestFeasibleFig6 checks the reference by hand on the paper's
// Fig. 6 inputs (C_free = 50 MB). At t = 10 it waits, as Schedule does. At
// t = 20 it asks for 60 MB where Schedule asks for 12.5 MB: the 205 MB wave
// takes its whole interval to write, so everything it needs must be free
// before it starts, and the four intervals ahead of it can reclaim only
// 48.75 + 43.75 + 38.75 + 48.75 MB of the 240 MB deficit between them.
func TestLatestFeasibleFig6(t *testing.T) {
	for _, tc := range []struct {
		name   string
		demand []int64
		cfree  int64
		want   int64
	}{
		{"Fig. 6(a)", paperDemand(0, 0, 0, 0, 20, 40), 50 * mb, 0},
		{"Fig. 6(b)", paperDemand(0, 0, 20, 40, 0, 200), 50 * mb, 60 * mb},
		{"next-tick shortfall", []int64{30 * mb, 0, 0, 0, 0, 0}, 10 * mb, 20 * mb},
		// Interval 1 can reclaim 50 MB, interval 2 only (5 − 190/40)·10 = 2.5 MB.
		{"wave two ticks out", []int64{0, 0, 190 * mb}, 0, 137.5 * mb},
	} {
		if got := latestFeasible(tc.demand, tc.cfree, fluidPeriod, fluidBw, fluidBgc, 1); got != tc.want {
			t.Errorf("%s: reclaim %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFluidScheduleAgainstLatestFeasible drives three rules closed-loop
// through the fluid model over fluidStreams seeded streams at three burst
// sizes: bare Schedule (what the oracle runs), decide with JIT-GC's
// two-tick reserve (every interval's demand is a buffered flush wave the
// predictor knows exactly, so the reserve is D_0 + D_1), and
// latestFeasible. At every tick it checks the reference's minimality — one
// byte less than it asks for leaves foreground collection in the horizon,
// and what it asks for leaves none whenever the interval can run it — and
// holds each rule's total foreground collection to the bound measured when
// the test was written, so a change to the rule that leaves more is a
// failure.
func TestFluidScheduleAgainstLatestFeasible(t *testing.T) {
	view := fakeView{bw: fluidBw, bgc: fluidBgc, idleFrac: 1}
	rules := []struct {
		name string
		rule fluidRule
		// fgcMB bounds the rule's total FGC at each burst size, in MB.
		fgcMB [3]int64
	}{
		{"Schedule", func(w []int64, cfree int64) int64 {
			return Schedule(w, cfree, fluidPeriod, fluidBw, fluidBgc, 1)
		}, [3]int64{113_982, 492_214, 700_298}},
		{"decide+reserve", func(w []int64, cfree int64) int64 {
			view.free = cfree
			return decide(forecast{demand: w, reserve: w[0] + w[1]}, fluidPeriod, view).ReclaimBytes
		}, [3]int64{116, 126_008, 446_631}},
		{"latestFeasible", func(w []int64, cfree int64) int64 {
			return latestFeasible(w, cfree, fluidPeriod, fluidBw, fluidBgc, 1)
		}, [3]int64{11, 20_898, 161_139}},
	}
	bursts := [3]float64{60 * mb, 100 * mb, 140 * mb}
	minimal := func(w []int64, cfree, r int64) {
		if r <= 0 {
			return
		}
		if fgc := fluidWindowFGC(w, cfree, r-1, fluidPeriod, fluidBw, fluidBgc); fgc == 0 {
			t.Fatalf("demand %v, free %d: reclaiming %d, one byte under the reference, leaves no FGC", w, cfree, r-1)
		}
		if r <= idleCapacity(w[0], fluidPeriod, fluidBw, fluidBgc, 1) {
			if fgc := fluidWindowFGC(w, cfree, r, fluidPeriod, fluidBw, fluidBgc); fgc != 0 {
				t.Fatalf("demand %v, free %d: the reference's %d leaves %d bytes of FGC", w, cfree, r, fgc)
			}
		}
	}
	t.Logf("%-15s %6s %12s %16s %14s", "rule", "burst", "FGC (MB)", "reclaim (MB)", "mean free (MB)")
	for _, rc := range rules {
		for bi, burst := range bursts {
			var tot fluidTotals
			for s := range fluidStreams {
				var check func([]int64, int64, int64)
				if rc.name == "latestFeasible" {
					check = minimal
				}
				r := runFluid(fluidStream(uint64(s), burst), rc.rule, check)
				tot.fgc += r.fgc
				tot.reclaim += r.reclaim
				tot.free += r.free
			}
			fgcMB := float64(tot.fgc) / mb
			t.Logf("%-15s %6.0f %12.0f %16.0f %14.1f", rc.name, burst/mb, fgcMB,
				float64(tot.reclaim)/mb, float64(tot.free)/mb/(fluidStreams*fluidTicks))
			if fgcMB > float64(rc.fgcMB[bi]) {
				t.Errorf("%s at %.0f MB bursts: %.0f MB of FGC, bound %d MB", rc.name, burst/mb, fgcMB, rc.fgcMB[bi])
			}
		}
	}
}
