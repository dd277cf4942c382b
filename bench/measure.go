package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// repeat is what one untraced repeat of a workload measured: set-up and the
// run phase timed apart, and the allocation delta over both.
type repeat struct {
	setup, runWall, runCPU time.Duration
	allocBytes, allocs     uint64
	out                    outcome
}

// rusage reads the process's own resource usage; it cannot fail for
// RUSAGE_SELF with a valid pointer.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// measureOnce sets the workload up and runs it once, untraced. The collector
// runs before the clock starts so that one repeat's garbage is not charged to
// the next.
func measureOnce(w workload, seed int64, ops int) (repeat, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	inst, err := w.setup(seed, ops, nil)
	if err != nil {
		return repeat{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	t1 := time.Now()
	c1 := cpuTime()
	out, err := inst.run()
	c2 := cpuTime()
	t2 := time.Now()
	if err != nil {
		return repeat{}, fmt.Errorf("%s: run: %w", w.name, err)
	}
	runtime.ReadMemStats(&m1)
	return repeat{
		setup:      t1.Sub(t0),
		runWall:    t2.Sub(t1),
		runCPU:     c2 - c1,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		allocs:     m1.Mallocs - m0.Mallocs,
		out:        out,
	}, nil
}

// subSeeds is the number of distinct inputs one run draws from its seed.
// The simulated and allocation statistics of a run are means over these
// inputs and the host-time medians are taken over repeats that cycle through
// them, so that no single request stream's luck decides a run's numbers
// (about one churn stream in three, for one, ends by doubling its request
// slice, which moves bytes allocated by a third and peak memory by a
// quarter).
const subSeeds = 10

// inputSeed is the generation seed of a run's i-th repeat. Different seeds
// draw disjoint inputs, and inputs lie a million apart because the tenant
// engine derives its thousand arrival processes from consecutive seeds:
// neighbouring generation seeds would share all but one of them.
func inputSeed(seed int64, i, k int) int64 {
	return (seed*subSeeds + int64(i%k)) * 1_000_000
}

// measure repeats the workload for the measuring time d, and at least once
// per input, cycling through k inputs made from seed; it returns every repeat
// in order.
func measure(w workload, seed int64, ops int, d time.Duration, k int) ([]repeat, error) {
	var reps []repeat
	start := time.Now()
	for len(reps) < k || time.Since(start) < d {
		r, err := measureOnce(w, inputSeed(seed, len(reps), k), ops)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// median returns the middle value of xs, or the mean of the middle two; xs
// need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(xs, n=4) gives them (the "exclusive" method), which is
// what the acceptance rule for this benchmark is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
