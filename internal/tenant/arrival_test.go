package tenant

import (
	"math"
	"slices"
	"testing"
	"time"
)

// gapStats draws n inter-arrival gaps and returns their sample mean and
// variance in seconds.
func gapStats(t *testing.T, kind ArrivalKind, rate float64, seed uint64, n int) (mean, variance float64) {
	t.Helper()
	p, err := newProcess(kind, rate, seed)
	if err != nil {
		t.Fatalf("newProcess(%s): %v", kind, err)
	}
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		g := p.Next().Seconds()
		sum += g
		sumsq += g * g
	}
	mean = sum / float64(n)
	variance = sumsq/float64(n) - mean*mean
	return mean, variance
}

// TestPoissonStatistics checks the exponential gap generator against its
// analytic moments: mean 1/λ and variance 1/λ² (squared coefficient of
// variation exactly 1).
func TestPoissonStatistics(t *testing.T) {
	const (
		rate = 50.0
		n    = 200000
	)
	mean, variance := gapStats(t, Poisson, rate, 7, n)
	if want := 1 / rate; math.Abs(mean-want)/want > 0.02 {
		t.Errorf("poisson mean gap %.6fs, want %.6fs ±2%%", mean, want)
	}
	if want := 1 / (rate * rate); math.Abs(variance-want)/want > 0.05 {
		t.Errorf("poisson gap variance %.8f, want %.8f ±5%%", variance, want)
	}
}

// TestMMPPStatistics checks the two-state MMPP against its design targets:
// the burst/calm mixture time-averages to the declared rate (mean gap 1/λ),
// and the state modulation makes gaps over-dispersed relative to Poisson
// (squared coefficient of variation well above 1).
func TestMMPPStatistics(t *testing.T) {
	const (
		rate = 50.0
		n    = 400000
	)
	mean, variance := gapStats(t, MMPP, rate, 11, n)
	// The mean converges slower than Poisson's: each ~10 s burst/calm cycle
	// is one effectively independent sample of the modulating chain.
	if want := 1 / rate; math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mmpp mean gap %.6fs, want %.6fs ±5%%", mean, want)
	}
	if scv := variance / (mean * mean); scv < 1.2 {
		t.Errorf("mmpp squared CoV %.3f, want > 1.2 (burstier than Poisson)", scv)
	}
}

// TestDiurnalStatistics integrates the thinned inhomogeneous process over
// whole sinusoid periods, where the day curve averages out exactly: the
// realized arrival rate must match the declared mean rate.
func TestDiurnalStatistics(t *testing.T) {
	const (
		rate    = 50.0
		periods = 10
	)
	p, err := newProcess(Diurnal, rate, 13)
	if err != nil {
		t.Fatal(err)
	}
	span := time.Duration(periods) * diurnalPeriod
	var now time.Duration
	count := 0
	for {
		now += p.Next()
		if now >= span {
			break
		}
		count++
	}
	realized := float64(count) / span.Seconds()
	if math.Abs(realized-rate)/rate > 0.03 {
		t.Errorf("diurnal realized rate %.2f req/s over %d periods, want %.2f ±3%%",
			realized, periods, rate)
	}
	// The modulation must actually be there: the first half-period runs hot
	// (sin > 0), the second cold, so their arrival counts must differ
	// sharply in the hot half's favour.
	p2, err := newProcess(Diurnal, rate, 13)
	if err != nil {
		t.Fatal(err)
	}
	var hot, cold int
	now = 0
	for now < diurnalPeriod {
		now += p2.Next()
		if now < diurnalPeriod/2 {
			hot++
		} else if now < diurnalPeriod {
			cold++
		}
	}
	if hot <= cold {
		t.Errorf("diurnal first half-period %d arrivals, second %d: modulation missing", hot, cold)
	}
}

// TestProcessDeterminism locks the seeded reproducibility contract every
// multi-tenant golden depends on: a tenant's arrival process is a pure
// function of (kind, rate, run seed, tenant) — the same quadruple yields the
// same gap sequence — while the neighbouring tenant, the next run seed and
// the tenant's own workload stream each yield a different one.
func TestProcessDeterminism(t *testing.T) {
	others := []struct {
		name string
		seed uint64
	}{
		{"tenant 8", streamSeed(42, 8, arrivalStream)},
		{"seed 43", streamSeed(43, 7, arrivalStream)},
		{"the workload stream", streamSeed(42, 7, workloadStream)},
	}
	for _, kind := range []ArrivalKind{Poisson, MMPP, Diurnal} {
		gaps := func(seed uint64) []time.Duration {
			p, err := newProcess(kind, 20, seed)
			if err != nil {
				t.Fatal(err)
			}
			g := make([]time.Duration, 1000)
			for i := range g {
				g[i] = p.Next()
			}
			return g
		}
		a := gaps(streamSeed(42, 7, arrivalStream))
		if b := gaps(streamSeed(42, 7, arrivalStream)); !slices.Equal(a, b) {
			t.Fatalf("%s: seed 42 tenant 7 gave two different gap sequences", kind)
		}
		for _, o := range others {
			if slices.Equal(a, gaps(o.seed)) {
				t.Errorf("%s: %s replayed seed 42 tenant 7's 1000 arrival gaps", kind, o.name)
			}
		}
	}
}

// TestStreamsIndependent: across 1,000 tenants and both purposes, under run
// seeds 1 and 2 together, no 64-bit draw appears twice among the first 128
// draws of the 4,000 streams. So no stream's first 64 draws equal any
// window of another's shifted by up to 64 draws — in particular seed 2's
// tenant t does not replay seed 1's tenant t+1.
func TestStreamsIndependent(t *testing.T) {
	const (
		tenants = 1000
		draws   = 128
	)
	all := make([]uint64, 0, 2*tenants*2*draws)
	for seed := int64(1); seed <= 2; seed++ {
		for tn := 0; tn < tenants; tn++ {
			for _, purpose := range []uint64{workloadStream, arrivalStream} {
				r := newPCG(streamSeed(seed, tn, purpose))
				for i := 0; i < draws; i++ {
					all = append(all, r.Uint64())
				}
			}
		}
	}
	slices.Sort(all)
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			t.Fatalf("draw %#x appears twice among the streams' first %d draws", all[i], draws)
		}
	}
}

// TestNewProcessRejectsBadInput covers the constructor's error paths.
func TestNewProcessRejectsBadInput(t *testing.T) {
	if _, err := newProcess(Poisson, 0, 1); err == nil {
		t.Error("accepted zero rate")
	}
	if _, err := newProcess(Poisson, math.NaN(), 1); err == nil {
		t.Error("accepted NaN rate")
	}
	if _, err := newProcess("weibull", 1, 1); err == nil {
		t.Error("accepted unknown arrival kind")
	}
	if _, err := ParseArrival("weibull"); err == nil {
		t.Error("ParseArrival accepted unknown kind")
	}
}
