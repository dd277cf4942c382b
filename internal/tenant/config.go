package tenant

import (
	"errors"
	"fmt"
	"math"
	"time"

	"jitgc/internal/sim"
	"jitgc/internal/workload"
)

// Named validation errors. Both reject configurations that would not crash
// but *hang*: a zero-weight tenant never accumulates deficit, so its queue
// never drains and the open-loop drain loop rotates forever; an unbounded
// queue turns every device stall into unbounded backlog growth with no drop
// signal, so an overloaded run never reaches the drain condition. Validate
// turns both into immediate named errors instead.
var (
	// ErrNonPositiveWeight rejects a QoS class whose weight is below 1.
	ErrNonPositiveWeight = errors.New("tenant: class weight must be >= 1")
	// ErrUnboundedQueue rejects a non-positive per-tenant queue depth.
	ErrUnboundedQueue = errors.New("tenant: queue depth must be bounded (>= 1)")
)

// Class is one QoS tier: a scheduler weight and a declared tail-latency SLO.
// Tenants are assigned classes round-robin by tenant index.
type Class struct {
	// Name labels the tier in reports ("gold", "silver", "bronze").
	Name string
	// Weight is the tenant's DRR share: a weight-4 tenant receives 4× the
	// device page bandwidth of a weight-1 tenant under contention. Must be
	// ≥ 1 (ErrNonPositiveWeight).
	Weight int64
	// SLO is the declared p99.9 completion-latency target (queue wait
	// included); a completed request slower than this counts as a
	// violation, and a tenant whose p99.9 exceeds it misses its SLO.
	SLO time.Duration
}

// DefaultSLO is the silver-class p99.9 target of the default QoS ladder.
const DefaultSLO = 100 * time.Millisecond

// Ladder returns the three-tier gold/silver/bronze QoS ladder around the
// silver-class p99.9 target slo: weights 4/2/1 and SLOs of slo/4, slo and
// 5×slo. At DefaultSLO (25 ms / 100 ms / 500 ms) the ladder is calibrated
// to the device's stall anatomy: silver sits just above a write-back flush
// batch, so meeting it means dodging foreground collections; bronze
// tolerates riding out a full collection behind the queue; gold demands a
// tail no collection ever touches.
func Ladder(slo time.Duration) []Class {
	return []Class{
		{Name: "gold", Weight: 4, SLO: slo / 4},
		{Name: "silver", Weight: 2, SLO: slo},
		{Name: "bronze", Weight: 1, SLO: 5 * slo},
	}
}

// Config assembles a multi-tenant run.
type Config struct {
	// Tenants is the number of independent traffic sources (≥ 1).
	Tenants int
	// OpsPerTenant is the number of requests each tenant issues (≥ 1).
	OpsPerTenant int
	// Arrival selects the per-tenant arrival process (default Poisson).
	Arrival ArrivalKind
	// Rate is each tenant's mean arrival rate in requests per second.
	Rate float64
	// QueueDepth bounds each tenant's admission queue; arrivals beyond it
	// are dropped (open-loop load shedding). Default 64; explicit
	// non-positive values are rejected with ErrUnboundedQueue.
	QueueDepth int
	// Quantum is the DRR base quantum in pages: the bandwidth credit a
	// weight-1 tenant earns per scheduler rotation. Default 8.
	Quantum int64
	// Classes is the QoS ladder tenants are assigned to round-robin.
	// Default Ladder(DefaultSLO).
	Classes []Class
	// Seed drives workload generation and every arrival process (default 1).
	Seed int64
	// WorkingSetPages is the total logical space shared by the tenants;
	// each tenant owns a disjoint 1/Tenants slice of it. Each slice must
	// meet the MinWorkingSetPages of every profile the tenants run (17
	// pages, TPC-C's, from the sixth tenant on).
	WorkingSetPages int64
	// Device configures the shared device simulator. NonPreemptiveBGC is
	// forced on: open-loop backpressure is about arrivals piling up behind
	// collections, which requires collections to occupy the device for
	// real.
	Device sim.Config
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Arrival == "" {
		c.Arrival = Poisson
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Quantum == 0 {
		c.Quantum = 8
	}
	if c.Classes == nil {
		c.Classes = Ladder(DefaultSLO)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Device.NonPreemptiveBGC = true
	return c
}

// Validate reports configuration errors, including the two liveness
// hazards as named errors (ErrNonPositiveWeight, ErrUnboundedQueue) and a
// slice too small for a tenant's profile (workload.ErrWorkingSetTooSmall).
func (c Config) Validate() error {
	if c.Tenants < 1 {
		return fmt.Errorf("tenant: need at least 1 tenant, got %d", c.Tenants)
	}
	if c.OpsPerTenant < 1 {
		return fmt.Errorf("tenant: non-positive ops per tenant %d", c.OpsPerTenant)
	}
	if _, err := ParseArrival(string(c.Arrival)); err != nil {
		return err
	}
	if !(c.Rate > 0) || math.IsInf(c.Rate, 1) {
		return fmt.Errorf("tenant: arrival rate %v is not positive and finite", c.Rate)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("%w: got depth %d", ErrUnboundedQueue, c.QueueDepth)
	}
	if c.Quantum < 1 {
		return fmt.Errorf("tenant: non-positive quantum %d", c.Quantum)
	}
	if len(c.Classes) == 0 {
		return fmt.Errorf("tenant: no QoS classes")
	}
	for i, cl := range c.Classes {
		if cl.Weight < 1 {
			return fmt.Errorf("%w: class %d (%s) weight %d", ErrNonPositiveWeight, i, cl.Name, cl.Weight)
		}
		if cl.SLO <= 0 {
			return fmt.Errorf("tenant: class %d (%s) non-positive SLO %v", i, cl.Name, cl.SLO)
		}
	}
	slice := c.WorkingSetPages / int64(c.Tenants)
	gens := workload.All()
	for _, g := range gens[:min(c.Tenants, len(gens))] { // the profiles newSource assigns
		if need := g.MinWorkingSetPages(); slice < need {
			return fmt.Errorf("%w: %d pages over %d tenants leaves %d-page slices, %s needs %d",
				workload.ErrWorkingSetTooSmall, c.WorkingSetPages, c.Tenants, slice, g.Name(), need)
		}
	}
	return c.Device.Validate()
}
