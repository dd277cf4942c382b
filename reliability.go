package jitgc

import (
	"fmt"

	"jitgc/internal/array"
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

// reliability runs the fault-injection experiment in two parts.
//
// Part 1 sweeps fault rate × BGC policy on YCSB: every cell arms the
// seeded NAND fault model at one rate on reads, programs and erases alike,
// runs the benchmark to completion under the FTL's recovery policies, and
// reports throughput beside the recovery outcomes (injected faults, blocks
// retired, read retries, unrecoverable reads). The rate-0 row doubles as
// the control: it must match a run without any fault plumbing.
//
// Part 2 kills one member of a two-device array mid-run — a raw injector
// fails every program on member 1 once preconditioning is done, which is
// fatal (raw injectors bypass recovery) and degrades the member — and
// reports the merged survivor record: requests striped onto the dead
// member fail fast, the survivor keeps serving its own.
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
		cellOpt.FaultRate = rate
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
	degraded, err := reliabilityDegraded(opt)
	if err != nil {
		return nil, err
	}
	return []Table{sweep, degraded}, nil
}

// reliabilityDegraded is part 2: the two-device degraded-array run.
func reliabilityDegraded(opt Options) (Table, error) {
	opt = opt.withDefaults()
	cfg, ws := opt.simConfig()
	arr, err := array.New(array.Config{
		Devices: 2,
		Device:  cfg,
	}, JIT().Factory())
	if err != nil {
		return Table{}, err
	}

	// Member 1's programs all fail once preconditioning (which must
	// succeed — a dead device cannot be filled) is past: a raw injector is
	// fatal, so the first failed program degrades the member.
	fm := nand.NewFaultModel(nand.FaultConfig{Seed: 1})
	arr.Device(1).FTL().Device().SetFaultInjector(fm)
	fm.FailFrom(nand.OpProgram, cfg.PreconditionPages+64)

	reqs, _, err := GenerateStream("YCSB", Options{
		Seed: opt.Seed, Ops: opt.Ops, WorkingSetPages: 2 * ws,
	})
	if err != nil {
		return Table{}, err
	}
	res, err := arr.RunClosedLoop(reqs)
	if err != nil {
		return Table{}, fmt.Errorf("reliability degraded array: %w", err)
	}

	t := Table{
		Title:   "Degraded array: 2 devices, member 1 loses every program mid-run (fatal, no recovery)",
		Columns: []string{"scope", "status", "requests", "host programs", "IOPS"},
	}
	for i, r := range res.PerDevice {
		status := "healthy"
		if arr.Degraded(i) != nil {
			status = "degraded"
		}
		t.AddRow(fmt.Sprintf("device %d", i), status,
			fmt.Sprintf("%d", r.Requests),
			fmt.Sprintf("%d", r.HostPrograms),
			fmt.Sprintf("%.0f", r.IOPS))
	}
	t.AddRow("array", fmt.Sprintf("%d degraded", len(res.Degraded)),
		fmt.Sprintf("%d served + %d failed fast", res.Array.Requests, res.FailedRequests),
		fmt.Sprintf("%d", res.Array.HostPrograms),
		fmt.Sprintf("%.0f", res.Array.IOPS))
	if len(res.Degraded) != 1 {
		t.AddNote("expected exactly one degraded member, got %v", res.Degraded)
	}
	return t, nil
}
