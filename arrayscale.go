package jitgc

import (
	"fmt"
	"time"

	"jitgc/internal/array"
	"jitgc/internal/ftl"
	"jitgc/internal/nand"
	"jitgc/internal/sim"
)

// arrayscaleDeviceCounts is the -exp arrayscale width sweep: past the 8
// devices the static token width was tuned in, into the regime where a
// fixed K either serializes collections (too narrow) or readmits the
// unsynchronized tail (too wide).
var arrayscaleDeviceCounts = []int{16, 32, 64}

// arrayscaleModes spans the coordination schemes under study: the
// unsynchronized baseline, the static N/2 width extrapolated from the
// small-array default, and the burn-rate-driven adaptive cap.
var arrayscaleModes = []struct {
	name  string
	coord string
	cap   func(devices int) int
}{
	{"independent", string(array.Independent), func(int) int { return 0 }},
	{"static N/2", string(array.Coordinated), func(d int) int { return d / 2 }},
	{"adaptive", string(array.Coordinated), func(int) int { return array.AdaptiveCap }},
}

// arrayscaleDeviceConfig is the member-device profile of the width sweep: a
// deliberately tiny device (2 × 32 × 32 × 4 KiB = 8 MiB raw) with a small
// cache and the compressed 500 ms write-back interval, so a 64-member array
// reaches GC pressure on every device within a short run. The study
// measures coordination across members, not per-device behavior, so member
// capacity is the knob sacrificed for width.
func arrayscaleDeviceConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.FTL.Geometry = nand.Geometry{
		Channels:        2,
		ChipsPerChannel: 1,
		BlocksPerChip:   32,
		PagesPerBlock:   32,
		PageSize:        4096,
	}
	user := ftl.UserPagesFor(cfg.FTL.Geometry.TotalPages(), cfg.FTL.OPRatio)
	cfg.PreconditionPages = user / 2
	cfg.Cache.CapacityPages = 1024
	cfg.Cache.FlusherPeriod = 500 * time.Millisecond
	cfg.Cache.Expire = 3 * time.Second
	return cfg
}

// arrayscaleExp runs the wide-array coordination study in two parts.
//
// Part 1 sweeps 16/32/64 devices × coordination scheme on YCSB: at every
// width the static N/2 token and the adaptive cap are measured against the
// unsynchronized baseline on array p99.9 and the per-device p99 spread —
// the question is whether the coordinated tail advantage survives scaling,
// and what token width it takes.
//
// Part 2 is the rebuild-under-fire study: a 4-device array with one spare
// loses member 1 to a fatal program fault just after preconditioning, once
// per redundancy scheme. Mirror and parity must serve every request
// throughout (degraded reads from the neighbor copy or row reconstruction)
// while the spare rebuilds in the background; the unprotected array fails
// fast until its salvage rebuild swaps the spare in.
func arrayscaleExp(opt Options) ([]Table, error) {
	scale, err := arrayscaleWidths(opt)
	if err != nil {
		return nil, err
	}
	rebuild, err := arrayscaleRebuild(opt)
	if err != nil {
		return nil, err
	}
	return []Table{scale, rebuild}, nil
}

// arrayscaleWidths is part 1: the 16/32/64-device coordination sweep.
func arrayscaleWidths(opt Options) (Table, error) {
	nModes := len(arrayscaleModes)
	slots, err := gridCells(opt, len(arrayscaleDeviceCounts)*nModes, func(i int) (ArrayResults, error) {
		d := arrayscaleDeviceCounts[i/nModes]
		m := arrayscaleModes[i%nModes]
		// Offered load scales with width (ops × d/4) so per-device GC
		// pressure stays constant across the sweep; the divisor keeps the
		// 64-device cell tractable on the tiny member geometry.
		cellOpt := opt.withDefaults()
		cellOpt.Ops = cellOpt.Ops * d / 4
		cfg := arrayscaleDeviceConfig()
		cellOpt.Config = &cfg
		res, err := RunArray("YCSB", JIT(), ArrayConfig{
			Devices:         d,
			Coordination:    m.coord,
			MaxConcurrentGC: m.cap(d),
		}, cellOpt)
		if err != nil {
			return res, fmt.Errorf("arrayscale ×%d %s: %w", d, m.name, err)
		}
		return res, nil
	})
	if err != nil {
		return Table{}, err
	}

	t := Table{
		Title: "Array width sweep: YCSB/JIT-GC over N tiny devices — unsynchronized vs static-N/2 vs adaptive token",
		Columns: []string{"devices", "coord", "K", "IOPS", "WAF",
			"p99 (µs)", "p99.9 (µs)", "dev p99 min/max (µs)", "WAF spread",
			"GC grant/deny/boost/bypass"},
	}
	for i, res := range slots {
		m := arrayscaleModes[i%nModes]
		a := res.Array
		k := "-"
		if res.Mode == array.Coordinated {
			k = fmt.Sprintf("%d", res.ResolvedCap)
		}
		devMin, devMax := devP99Spread(res)
		t.AddRow(
			fmt.Sprintf("%d", res.Devices),
			m.name,
			k,
			fmt.Sprintf("%.0f", a.IOPS),
			fmt.Sprintf("%.3f", a.WAF),
			fmt.Sprintf("%.0f", float64(a.P99Latency)/float64(time.Microsecond)),
			fmt.Sprintf("%.0f", float64(res.P999Latency)/float64(time.Microsecond)),
			fmt.Sprintf("%.0f/%.0f",
				float64(devMin)/float64(time.Microsecond),
				float64(devMax)/float64(time.Microsecond)),
			fmt.Sprintf("%.3f", res.WAFSpread()),
			fmt.Sprintf("%d/%d/%d/%d", res.GCGranted, res.GCDenied, res.GCBoosted, res.GCBypassed))
	}
	return t, nil
}

// devP99Spread bounds the member devices' own p99 latencies — the
// per-device tail spread uncoordinated collections let develop.
func devP99Spread(res ArrayResults) (min, max time.Duration) {
	for i, r := range res.PerDevice {
		if i == 0 || r.P99Latency < min {
			min = r.P99Latency
		}
		if r.P99Latency > max {
			max = r.P99Latency
		}
	}
	return min, max
}

// arrayscaleRebuild is part 2: one fatal member failure per redundancy
// scheme on a 4-device array with a standby spare.
func arrayscaleRebuild(opt Options) (Table, error) {
	opt = opt.withDefaults()
	t := Table{
		Title: "Rebuild under fire: 4 devices + 1 spare, member 1 loses every program just after preconditioning",
		Columns: []string{"redundancy", "served", "failed fast", "torn",
			"degraded rd/wr", "rebuilt", "rebuild pages", "rebuild time"},
	}
	schemes := []array.Redundancy{array.RedundancyMirror, array.RedundancyParity, array.RedundancyNone}
	slots, err := gridCells(opt, len(schemes), func(i int) (ArrayResults, error) {
		res, err := runRebuildUnderFire(schemes[i], opt)
		if err != nil {
			return res, fmt.Errorf("arrayscale rebuild %s: %w", schemes[i], err)
		}
		return res, nil
	})
	if err != nil {
		return Table{}, err
	}
	for i, res := range slots {
		rebuilt := "no"
		if len(res.Rebuilt) > 0 {
			rebuilt = fmt.Sprintf("slot %v", res.Rebuilt)
		}
		t.AddRow(string(schemes[i]),
			fmt.Sprintf("%d", res.Array.Requests),
			fmt.Sprintf("%d", res.FailedRequests),
			fmt.Sprintf("%d", res.TornStripes),
			fmt.Sprintf("%d/%d", res.DegradedReads, res.DegradedWrites),
			rebuilt,
			fmt.Sprintf("%d", res.RebuildPages),
			res.RebuildTime.Round(time.Millisecond).String())
		if schemes[i] != array.RedundancyNone && res.FailedRequests > 0 {
			t.AddNote("%s: expected zero failed requests under redundancy, got %d",
				schemes[i], res.FailedRequests)
		}
		if len(res.Rebuilt) == 0 {
			t.AddNote("%s: spare rebuild did not complete within the run", schemes[i])
		}
	}
	return t, nil
}

// runRebuildUnderFire builds the 4-device + 1-spare array under one
// redundancy scheme, arms a fatal program injector on member 1, and runs
// the scaled YCSB stream closed-loop. The run drains until maintenance
// finishes, so a completed record implies the rebuild either swapped the
// spare in or aborted.
func runRebuildUnderFire(red array.Redundancy, opt Options) (ArrayResults, error) {
	const devices = 4
	cfg := arrayDeviceConfig()
	cfg.Tracer = opt.Tracer
	arr, err := array.New(array.Config{
		Devices:    devices,
		Redundancy: red,
		Spares:     1,
		Device:     cfg,
	}, JIT().Factory())
	if err != nil {
		return ArrayResults{}, err
	}
	fm := nand.NewFaultModel(nand.FaultConfig{Seed: 1})
	arr.Device(1).FTL().Device().SetFaultInjector(fm)
	fm.FailFrom(nand.OpProgram, cfg.PreconditionPages+64)

	reqs, _, err := GenerateStream("YCSB", Options{
		Seed:            opt.Seed,
		Ops:             opt.Ops * devices,
		WorkingSetPages: arr.UserPages() / 2,
	})
	if err != nil {
		return ArrayResults{}, err
	}
	res, err := arr.RunClosedLoop(reqs)
	if err != nil {
		return ArrayResults{}, fmt.Errorf("rebuild under fire (%s): %w", red, err)
	}
	res.Array.Workload = "YCSB"
	return res, nil
}
