package jitgc

import (
	"fmt"
	"time"

	"jitgc/internal/tenant"
)

// MultiTenantResults is the record of an open-loop multi-tenant run: the
// shared device's own results plus per-tenant and per-class SLO verdicts,
// drop accounting, and the merged latency histogram.
type MultiTenantResults = tenant.Results

// TenantConfig selects the open-loop multi-tenant front end: N independent
// tenants with seeded arrival processes feed bounded queues, and a
// deficit-round-robin scheduler dispatches them to one shared device.
type TenantConfig struct {
	// Tenants is the number of traffic sources (default 1000).
	Tenants int
	// Arrival names the per-tenant arrival process: "poisson" (default),
	// "mmpp" (bursty), or "diurnal".
	Arrival string
	// Rate is each tenant's mean arrival rate in requests/second; 0 means
	// the moderate aggregate load (120 req/s) split evenly across tenants.
	Rate float64
	// SLO is the silver-class p99.9 latency target (default 100 ms); gold
	// tightens it 4×, bronze relaxes it 5×.
	SLO time.Duration
}

// withDefaults fills zero fields.
func (c TenantConfig) withDefaults() TenantConfig {
	if c.Tenants == 0 {
		c.Tenants = 1000
	}
	if c.Arrival == "" {
		c.Arrival = string(tenant.Poisson)
	}
	if c.Rate == 0 {
		c.Rate = moderateAggregateRate / float64(c.Tenants)
	}
	if c.SLO == 0 {
		c.SLO = 100 * time.Millisecond
	}
	return c
}

// Aggregate request rates of the -exp multitenant load levels, in req/s
// across all tenants. The device programs a direct page in ≈ 512 µs of
// occupancy (2 ms NAND program striped over 4 dies) and GC roughly doubles
// device page traffic, so "moderate" (≈120 req/s) leaves idle headroom for
// background GC while "heavy" (≈400 req/s) drives it to the edge of
// sustainability: queues grow, drops appear, and the GC policies separate —
// at 1000 tenants the smoothed aggregate leaves no idle gaps at all and
// every policy collapses into foreground collection.
const (
	moderateAggregateRate = 120
	heavyAggregateRate    = 400
)

// qosClasses derives the gold/silver/bronze ladder from the silver-class
// p99.9 target.
func qosClasses(slo time.Duration) []tenant.Class {
	return []tenant.Class{
		{Name: "gold", Weight: 4, SLO: slo / 4},
		{Name: "silver", Weight: 2, SLO: slo},
		{Name: "bronze", Weight: 1, SLO: 5 * slo},
	}
}

// RunMultiTenant executes the open-loop multi-tenant engine under the given
// policy. opt.Ops is the total request budget, split evenly across tenants;
// the working set defaults to half the user capacity, split into disjoint
// per-tenant slices. The write-back interval is left at whatever opt.Config
// carries (the experiment grid compresses it, like the array grid).
func RunMultiTenant(policy PolicySpec, tcfg TenantConfig, opt Options) (MultiTenantResults, error) {
	opt = opt.withDefaults()
	tcfg = tcfg.withDefaults()
	kind, err := tenant.ParseArrival(tcfg.Arrival)
	if err != nil {
		return MultiTenantResults{}, err
	}
	cfg, ws := opt.simConfig()
	ops := opt.Ops / tcfg.Tenants
	if ops < 1 {
		ops = 1
	}
	eng, err := tenant.New(tenant.Config{
		Tenants:         tcfg.Tenants,
		OpsPerTenant:    ops,
		Arrival:         kind,
		Rate:            tcfg.Rate,
		Classes:         qosClasses(tcfg.SLO),
		Seed:            opt.Seed,
		WorkingSetPages: ws,
		Device:          cfg,
	}, policy.Factory())
	if err != nil {
		return MultiTenantResults{}, err
	}
	res, err := eng.Run()
	if err != nil {
		return MultiTenantResults{}, err
	}
	res.Device.Workload = "multitenant"
	return res, nil
}

// The -exp multitenant grid: tenant count × arrival intensity × GC policy.
// MMPP arrivals throughout — bursty aggregates are where the paper's
// idle-gap reasoning is actually at risk.
var (
	mtTenantCounts = []int{100, 1000}
	mtLoads        = []struct {
		name      string
		aggregate float64
	}{
		{"moderate", moderateAggregateRate},
		{"heavy", heavyAggregateRate},
	}
	mtPolicies = []PolicySpec{Aggressive(), ADP(), JIT()}
)

// multitenantExp runs the open-loop QoS grid. Each cell splits opt.Ops over
// the cell's tenants and drives them to completion (every queue drained),
// so the per-tenant p99.9 verdicts cover the whole run including trailing
// backlog. Cells fan out over opt.Workers into pre-indexed slots.
func multitenantExp(opt Options) ([]Table, error) {
	perCount := len(mtLoads) * len(mtPolicies)
	slots := make([]MultiTenantResults, len(mtTenantCounts)*perCount)
	err := runGrid(opt, len(slots), func(i int) error {
		n := mtTenantCounts[i/perCount]
		load := mtLoads[(i%perCount)/len(mtPolicies)]
		pol := mtPolicies[i%len(mtPolicies)]
		cellOpt := opt.withDefaults()
		cfg := arrayDeviceConfig() // compressed write-back interval, same rationale
		cellOpt.Config = &cfg
		res, err := RunMultiTenant(pol, TenantConfig{
			Tenants: n,
			Arrival: string(tenant.MMPP),
			Rate:    load.aggregate / float64(n),
		}, cellOpt)
		if err != nil {
			return fmt.Errorf("multitenant %d×%s/%s: %w", n, load.name, pol.Kind, err)
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := Table{
		Title: "Open-loop multi-tenant QoS: MMPP arrivals, DRR scheduling, per-tenant p99.9 SLO verdicts",
		Columns: []string{"tenants", "load", "policy", "served", "dropped", "p99 (ms)", "p99.9 (ms)",
			"SLO gold", "SLO silver", "SLO bronze", "FGC", "WAF"},
	}
	for i, res := range slots {
		n := mtTenantCounts[i/perCount]
		load := mtLoads[(i%perCount)/len(mtPolicies)]
		cells := []string{
			fmt.Sprintf("%d", n),
			load.name,
			res.Device.Policy,
			fmt.Sprintf("%d", res.Completed),
			fmt.Sprintf("%d", res.Dropped),
			fmt.Sprintf("%.1f", float64(res.Hist.Quantile(0.99))/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", float64(res.Hist.Quantile(0.999))/float64(time.Millisecond)),
		}
		for _, c := range res.PerClass {
			cells = append(cells, fmt.Sprintf("%d/%d", c.SLOMet, c.Tenants))
		}
		cells = append(cells,
			fmt.Sprintf("%d", res.Device.FGCInvocations),
			fmt.Sprintf("%.3f", res.Device.WAF))
		t.AddRow(cells...)
	}
	t.AddInfo("latencies include queue wait; SLO columns count tenants whose p99.9 met the class target")
	return []Table{t}, nil
}
