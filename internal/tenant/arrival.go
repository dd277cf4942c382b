// Package tenant is the open-loop multi-tenant traffic engine in front of
// the single-device simulator: hundreds to thousands of independent writers,
// each with a seeded arrival process and a workload profile drawn from the
// paper-benchmark generators, land requests in bounded per-tenant queues; a
// deficit-round-robin scheduler dispatches the backlog to the device on the
// shared simulated clock.
//
// This is the regime the paper never tested: its closed-loop benchmarks stop
// issuing while the device stalls, so a collection can never build a
// backlog. Open-loop arrivals keep coming during stalls — the queue, not the
// stream, absorbs a mistimed collection — which is exactly the aggregate
// "millions of users" traffic JIT-GC's idle-gap prediction must survive.
// Tail latency per tenant is tracked with mergeable streaming histograms
// against declared SLOs.
package tenant

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// ArrivalKind names a tenant arrival process.
type ArrivalKind string

// Arrival processes.
const (
	// Poisson arrivals: exponential inter-arrival gaps at the tenant's mean
	// rate — the memoryless baseline of the stochastic large-scale SSD
	// models.
	Poisson ArrivalKind = "poisson"
	// MMPP arrivals: a two-state Markov-modulated Poisson process that
	// alternates exponential sojourns in a burst state (4× the mean rate)
	// and a calm state (0.25×), time-averaging to the tenant's mean rate.
	// Bursty aggregates are where GC-scheduling verdicts flip.
	MMPP ArrivalKind = "mmpp"
	// Diurnal arrivals: an inhomogeneous Poisson process whose rate follows
	// a sinusoidal day curve (±80% around the mean over a compressed
	// 60-second "day"), sampled by Lewis-Shedler thinning.
	Diurnal ArrivalKind = "diurnal"
)

// ParseArrival converts a flag string into an ArrivalKind.
func ParseArrival(s string) (ArrivalKind, error) {
	switch ArrivalKind(s) {
	case Poisson, MMPP, Diurnal:
		return ArrivalKind(s), nil
	}
	return "", fmt.Errorf("tenant: unknown arrival process %q (want %q, %q or %q)",
		s, Poisson, MMPP, Diurnal)
}

// MMPP shape constants. The stationary time fraction in the burst state is
// burstSojourn/(burstSojourn+calmSojourn) = 0.2, so the time-average rate is
// 0.2·4λ + 0.8·0.25λ = λ: the process burns the tenant's mean rate in
// 4×-rate bursts a fifth of the time. Sojourns span several write-back
// intervals, so a burst looks like a burst to the GC scheduler rather than
// averaging away inside one interval.
const (
	mmppBurstFactor = 4.0
	mmppCalmFactor  = 0.25
	mmppBurstMean   = 2 * time.Second
	mmppCalmMean    = 8 * time.Second
)

// Diurnal shape constants: rate(t) = λ·(1 + diurnalAmp·sin(2πt/diurnalPeriod)).
const (
	diurnalAmp    = 0.8
	diurnalPeriod = 60 * time.Second
)

// Each tenant draws from two PCG streams (math/rand/v2, 16 B of state each),
// one per purpose: its workload profile and its arrival process.
const (
	workloadStream uint64 = iota
	arrivalStream
)

// streamSeed returns the seed of one purpose stream of one tenant: SplitMix64
// chained over (run seed, tenant, purpose), so every stream is a pure
// function of that triple. Adjacent seeds or tenants land on unrelated
// streams — with plain sums, seed s+1's tenant t would replay seed s's
// tenant t+1.
func streamSeed(seed int64, tenant int, purpose uint64) uint64 {
	return splitMix(splitMix(splitMix(uint64(seed))^uint64(tenant)) ^ purpose)
}

// splitMix is the SplitMix64 output function: a bijective 64-bit mix.
func splitMix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// newPCG returns the PCG generator a stream seed names.
func newPCG(seed uint64) *rand.PCG { return rand.NewPCG(seed, splitMix(seed)) }

// process generates one tenant's inter-arrival gaps. Implementations are
// deterministic functions of their seed and are not safe for concurrent use
// — each tenant owns one.
type process interface {
	// Next returns the gap between the previous arrival and the next.
	Next() time.Duration
}

// newProcess builds the arrival process for one tenant, drawing from the PCG
// stream seed names. rate is the tenant's mean arrival rate in requests per
// second.
func newProcess(kind ArrivalKind, rate float64, seed uint64) (process, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("tenant: non-positive arrival rate %v", rate)
	}
	r := *rand.New(newPCG(seed)) // held by value, so the Rand is no allocation of its own
	switch kind {
	case Poisson:
		return &poisson{r: r, rate: rate}, nil
	case MMPP:
		m := &mmpp{r: r}
		m.rates[0] = rate * mmppBurstFactor
		m.rates[1] = rate * mmppCalmFactor
		m.sojourns[0] = mmppBurstMean
		m.sojourns[1] = mmppCalmMean
		// Start in the calm state with a fresh sojourn, like a tenant that
		// has been idle before the run begins.
		m.state = 1
		m.remaining = m.sojourn()
		return m, nil
	case Diurnal:
		return &diurnal{r: r, rate: rate}, nil
	}
	_, err := ParseArrival(string(kind))
	return nil, err
}

// poisson draws exponential gaps at a constant rate.
type poisson struct {
	r    rand.Rand
	rate float64
}

func (p *poisson) Next() time.Duration {
	return time.Duration(p.r.ExpFloat64() / p.rate * float64(time.Second))
}

// mmpp alternates exponential sojourns between a burst and a calm Poisson
// state. A gap can span state switches: the time to the next arrival
// competes with the time left in the current sojourn, and by memorylessness
// the candidate arrival is simply redrawn at the new state's rate.
type mmpp struct {
	r         rand.Rand
	rates     [2]float64
	sojourns  [2]time.Duration
	state     int
	remaining time.Duration
}

func (m *mmpp) sojourn() time.Duration {
	return time.Duration(m.r.ExpFloat64() * float64(m.sojourns[m.state]))
}

func (m *mmpp) Next() time.Duration {
	var gap time.Duration
	for {
		arrive := time.Duration(m.r.ExpFloat64() / m.rates[m.state] * float64(time.Second))
		if arrive < m.remaining {
			m.remaining -= arrive
			return gap + arrive
		}
		gap += m.remaining
		m.state = 1 - m.state
		m.remaining = m.sojourn()
	}
}

// diurnal samples an inhomogeneous Poisson process by thinning: candidates
// arrive at the peak rate and are accepted with probability rate(t)/peak, so
// accepted arrivals follow the sinusoidal day curve exactly.
type diurnal struct {
	r    rand.Rand
	rate float64
	now  time.Duration // absolute time of the previous arrival
}

func (d *diurnal) rateAt(t time.Duration) float64 {
	phase := 2 * math.Pi * float64(t) / float64(diurnalPeriod)
	return d.rate * (1 + diurnalAmp*math.Sin(phase))
}

func (d *diurnal) Next() time.Duration {
	peak := d.rate * (1 + diurnalAmp)
	t := d.now
	for {
		t += time.Duration(d.r.ExpFloat64() / peak * float64(time.Second))
		if d.r.Float64()*peak <= d.rateAt(t) {
			gap := t - d.now
			d.now = t
			return gap
		}
	}
}
