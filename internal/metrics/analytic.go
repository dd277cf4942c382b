package metrics

import "math"

// GreedyWAF is the steady-state write amplification of greedy victim
// selection under uniform random overwrites: the fluid limit of Li/Lee/Lui's
// mean-field model for a device of totalPages physical pages in blocks of
// k = pagesPerBlock, livePages of which hold host data. Every valid-count
// class above the victim's passes the same flux of overwrites, so the block
// counts fall as y_j ∝ 1/j, and the victim class j* is fixed by the blocks
// and pages they must hold:
//
//	(H_k − H_{j*−1}) / (k − j* + 1) = (T/U) / k,   WAF = k / (k − j* + 1),
//
// with H the harmonic numbers taken at real arguments. A trimmed share of
// the working set enters as a smaller livePages (Frankie et al.). The
// idealized greedy simulation in analytic_test.go and the scale and trim
// sweeps check it. It returns 1 when nothing is live and +Inf when there is
// no spare page.
func GreedyWAF(totalPages, livePages int64, pagesPerBlock int) float64 {
	if livePages <= 0 || pagesPerBlock <= 1 {
		return 1
	}
	if totalPages <= livePages {
		return math.Inf(1)
	}
	k := float64(pagesPerBlock)
	target := float64(totalPages) / float64(livePages) / k
	// x = j*−1 is the victim's valid count. The mean of 1/j over (x, k]
	// falls from H_k/k at x = 0 to 1/k as x → k; bisect for the target.
	hk := harmonic(k)
	if hk/k <= target {
		return 1 // spare enough that greedy's victim is empty
	}
	lo, hi := 0.0, k
	for i := 0; i < 100; i++ {
		x := (lo + hi) / 2
		if (hk-harmonic(x))/(k-x) > target {
			lo = x
		} else {
			hi = x
		}
	}
	return k / (k - (lo+hi)/2)
}

// harmonic returns H_x = ψ(x+1) + γ for real x ≥ 0: the recurrence
// H_x = H_{x+1} − 1/(x+1) lifts x past 6, where the asymptotic series is
// accurate to 1e-10.
func harmonic(x float64) float64 {
	h := 0.0
	for ; x < 6; x++ {
		h -= 1 / (x + 1)
	}
	f := 1 / (x * x)
	return h + math.Log(x) + 0.5772156649015329 + 0.5/x - f*(1.0/12-f*(1.0/120-f/252))
}
