package jitgc

import (
	"fmt"
	"time"

	"jitgc/internal/tenant"
)

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

// RunMultiTenant executes the open-loop multi-tenant engine tcfg describes
// under the given policy. It fills exactly four fields of tcfg from opt:
// Device, the device opt configures; WorkingSetPages, opt.WorkingSetPages
// or half the user capacity, split into disjoint per-tenant slices; Seed,
// opt.Seed; and OpsPerTenant, opt.Ops/tcfg.Tenants rounded down (at least
// 1), so a budget that is not a multiple of the tenant count loses its
// remainder and one below it issues one request per tenant. The tenant count, arrival process, rate and classes come from
// tcfg, with tenant.Config's defaults for zero fields. The write-back
// interval is left at whatever opt.Config carries (the experiment grid
// compresses it, like the array grid).
func RunMultiTenant(policy PolicySpec, tcfg tenant.Config, opt Options) (tenant.Results, error) {
	opt = opt.withDefaults()
	tcfg.Device, tcfg.WorkingSetPages = opt.simConfig()
	tcfg.Seed = opt.Seed
	tcfg.OpsPerTenant = max(opt.Ops/max(tcfg.Tenants, 1), 1) // tenant.New rejects fewer than one tenant
	eng, err := tenant.New(tcfg, policy.Factory())
	if err != nil {
		return tenant.Results{}, err
	}
	res, err := eng.Run()
	if err != nil {
		return tenant.Results{}, err
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
	slots, err := gridCells(opt, len(mtTenantCounts)*perCount, func(i int) (tenant.Results, error) {
		n := mtTenantCounts[i/perCount]
		load := mtLoads[(i%perCount)/len(mtPolicies)]
		pol := mtPolicies[i%len(mtPolicies)]
		cellOpt := opt.withDefaults()
		cfg := arrayDeviceConfig() // compressed write-back interval, same rationale
		cellOpt.Config = &cfg
		res, err := RunMultiTenant(pol, tenant.Config{
			Tenants: n,
			Arrival: tenant.MMPP,
			Rate:    load.aggregate / float64(n),
		}, cellOpt)
		if err != nil {
			return res, fmt.Errorf("multitenant %d×%s/%s: %w", n, load.name, pol.Kind, err)
		}
		return res, nil
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
