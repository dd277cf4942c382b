package metrics

import "math"

// Analytic write-amplification models for cross-validating simulated
// steady-state WAF at scales where the shadow-model sweeps are too slow.
// Both assume uniform random small writes over a fixed working set — the
// regime the scale and TRIM validation sweeps drive — and are evaluated at
// the live footprint the device must preserve:
//
//   - GreedyWAF is the greedy-selection model under uniform traffic
//     (Frankie et al. / Hu et al.): with spare factor ρ, the victim's
//     steady-state valid fraction tends to (1-ρ)/(1+ρ)… giving
//     WA = (1+ρ)/(2ρ). It ignores the block size: the fewer pages a block
//     holds, the wider its valid-count spread, the emptier greedy's
//     minimum-valid victim and the lower the WAF. An idealized greedy
//     model (uniform overwrites, minimum-valid victim, a 65,536-page device
//     at 75% fill) reads about 1.59, 1.80 and 1.88 at 8, 32 and 128 pages
//     per block against GreedyWAF's 1.672, so at the FTL's 128 pages per
//     block the measured WAF sits 11–13% above it at every device size
//     from 256 MiB to 64 GiB: the gap follows block size, not device size.
//   - MeanFieldWAF is the d-choices/mean-field fixed point used by
//     Li/Lee/Lui's stochastic model family for random (non-greedy)
//     selection: α = exp(-Sf·(1-α)), WA = 1/(1-α), with Sf = T/U the
//     physical-to-logical page ratio. At 128 pages per block greedy gains
//     almost nothing over random selection: the scale grid's WAF reads
//     1.859–1.886 against a mean-field 1.881, above it at 256 MiB, and the
//     TRIM sweep's untrimmed point 2.626 against 2.625.
//
// So the measured WAF is pinned to the bracket's mean-field edge, not inside
// it; the bracket holds there only through the 5% tolerance the scale and
// TRIM tables allow. A trimmed fraction q enters as a smaller live footprint
// (1-q)·ws (Frankie et al., "Analysis of Trim Commands on Overprovisioning
// and Write Amplification in Solid State Drives"): trimmed pages cost GC
// nothing, so WAF collapses along the same two curves.

// GreedyWAF returns the analytic steady-state write amplification of greedy
// victim selection under uniform random writes, for a device with
// totalPages physical pages of which livePages hold host data. The spare
// factor is ρ = (T - U) / U.
func GreedyWAF(totalPages, livePages int64) float64 {
	if livePages <= 0 || totalPages <= livePages {
		return 1
	}
	rho := float64(totalPages-livePages) / float64(livePages)
	wa := (1 + rho) / (2 * rho)
	if wa < 1 {
		return 1
	}
	return wa
}

// MeanFieldWAF returns the mean-field fixed-point write amplification of
// RANDOM victim selection under uniform random writes: α = exp(-Sf·(1-α))
// with Sf = totalPages/livePages, WA = 1/(1-α): the bracket's upper edge,
// which a greedy simulation with 128-page blocks sits on.
func MeanFieldWAF(totalPages, livePages int64) float64 {
	if livePages <= 0 || totalPages <= livePages {
		return 1
	}
	sf := float64(totalPages) / float64(livePages)
	// The fixed point is a contraction for Sf > 1; iterate to convergence.
	alpha := 0.5
	for i := 0; i < 200; i++ {
		next := math.Exp(-sf * (1 - alpha))
		if math.Abs(next-alpha) < 1e-12 {
			alpha = next
			break
		}
		alpha = next
	}
	if alpha >= 1 {
		return math.Inf(1)
	}
	wa := 1 / (1 - alpha)
	if wa < 1 {
		return 1
	}
	return wa
}
