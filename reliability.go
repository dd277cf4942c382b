package jitgc

import (
	"fmt"

	"jitgc/internal/nand"
)

// reliabilityRates is the -exp reliability fault-rate sweep: per-operation
// NAND failure probabilities from none to aggressive. Realistic raw bit
// error rates sit near the low end; the top rate stresses the recovery
// policies hard enough that block retirements show up within a short run.
var reliabilityRates = []float64{0, 1e-4, 1e-3, 5e-3}

// reliabilityPolicies spans the paper's fixed-reserve baselines and JIT-GC:
// the recovery layer must be policy-agnostic, so every policy has to
// survive every rate with the same retirement bookkeeping.
var reliabilityPolicies = []PolicySpec{Lazy(), Aggressive(), JIT()}

// reliability sweeps fault rate × BGC policy on YCSB: every cell arms the
// seeded NAND fault model at one rate on reads, programs and erases alike,
// runs the benchmark to completion under the FTL's recovery policies, and
// reports throughput beside the recovery outcomes (injected faults, blocks
// retired, read retries, unrecoverable reads). The rate-0 row doubles as
// the control: it must match a run without any fault plumbing.
func reliability(opt Options) ([]Table, error) {
	sweep := Table{
		Title: "Reliability sweep: YCSB under injected NAND faults (rate applies to reads, programs and erases; unrecoverable reads need 4 consecutive failures on one page, rate^4-rare by design)",
		Columns: []string{"fault rate", "policy", "IOPS", "WAF", "FGC",
			"injected", "retired", "read retries", "unrecoverable"},
	}
	nRates, nPols := len(reliabilityRates), len(reliabilityPolicies)
	slots, err := gridCells(opt, nRates*nPols, func(i int) (Results, error) {
		rate, pol := reliabilityRates[i/nPols], reliabilityPolicies[i%nPols]
		cellOpt := opt
		if rate > 0 {
			cfg, _ := opt.withDefaults().simConfig()
			cfg.FTL.Fault = nand.FaultConfig{Seed: 1, ReadRate: rate, ProgramRate: rate, EraseRate: rate}
			cellOpt.Config = &cfg
		}
		res, err := Run("YCSB", pol, cellOpt)
		if err != nil {
			return res, fmt.Errorf("reliability %.0e/%s: %w", rate, pol.Kind, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for i, res := range slots {
		sweep.AddRow(
			fmt.Sprintf("%.0e", reliabilityRates[i/nPols]),
			res.Policy,
			fmt.Sprintf("%.0f", res.IOPS),
			fmt.Sprintf("%.3f", res.WAF),
			fmt.Sprintf("%d", res.FGCInvocations),
			fmt.Sprintf("%d", res.InjectedFaults),
			fmt.Sprintf("%d", res.RetiredBlocks),
			fmt.Sprintf("%d", res.ReadRetries),
			fmt.Sprintf("%d", res.UnrecoverableReads))
	}
	return []Table{sweep}, nil
}
