package jitgc

import (
	"fmt"
	"time"

	"jitgc/internal/array"
	"jitgc/internal/nand"
	"jitgc/internal/sim"
	"jitgc/internal/workload"
)

// RunArray generates the named benchmark's request stream, scaled to the
// array's capacity, and executes it closed-loop over the striped array
// acfg describes: acfg.Devices members of acfg.Redundancy stripes under
// acfg.Mode coordination, with array.Config's defaults for zero fields.
// acfg.Device is ignored: every member is the device opt configures, with
// think times and working-set sizing as in Run. An explicit
// opt.WorkingSetPages is an array-level figure, so each member
// preconditions for its 1/N share; the working set defaults to half the
// array's addressable capacity. Each member is thus preconditioned like a
// single-device run, and per-device GC pressure matches the paper's setup
// regardless of array width. A set opt.HostProfile replaces the
// benchmark, whose name then only labels the run, as in Run.
func RunArray(benchmark string, policy PolicySpec, acfg array.Config, opt Options) (array.Results, error) {
	opt = opt.withDefaults()
	gen, err := opt.generator(benchmark)
	if err != nil {
		return array.Results{}, err
	}

	devOpt := opt
	if devOpt.WorkingSetPages > 0 {
		n := int64(max(acfg.Devices, 1)) // array.New rejects fewer than one
		devOpt.WorkingSetPages = (opt.WorkingSetPages + n - 1) / n
	}
	acfg.Device, _ = devOpt.simConfig()

	arr, err := array.New(acfg, policy.Factory())
	if err != nil {
		return array.Results{}, err
	}

	ws := opt.WorkingSetPages
	if ws == 0 {
		ws = arr.UserPages() / 2
	}
	reqs, err := gen.Generate(workload.Params{
		Seed:            opt.Seed,
		Ops:             opt.Ops,
		WorkingSetPages: ws,
	})
	if err != nil {
		return array.Results{}, err
	}
	res, err := arr.RunClosedLoop(reqs)
	if err != nil {
		return array.Results{}, err
	}
	res.Array.Workload = benchmark
	return res, nil
}

// arrayGridCells spans the ×1–8 array grid, per benchmark: one device,
// which Array.Tick never coordinates, then 2, 4 and 8 devices under each
// coordination mode.
var arrayGridCells = []array.Config{
	{Devices: 1, Mode: array.Independent},
	{Devices: 2, Mode: array.Independent}, {Devices: 2, Mode: array.Coordinated},
	{Devices: 4, Mode: array.Independent}, {Devices: 4, Mode: array.Coordinated},
	{Devices: 8, Mode: array.Independent}, {Devices: 8, Mode: array.Coordinated},
}

// arrayWideDeviceCounts is the wide-array width sweep: past the 8 devices
// the static token width was tuned in, into the regime where a fixed K
// either serializes collections (too narrow) or readmits the
// unsynchronized tail (too wide).
var arrayWideDeviceCounts = []int{16, 32, 64}

// arrayWideModes spans the coordination schemes under study: the
// unsynchronized baseline, the static N/2 width extrapolated from the
// small-array default, and the burn-rate-driven adaptive cap.
var arrayWideModes = []struct {
	name string
	mode array.Mode
	cap  func(devices int) int
}{
	{"independent", array.Independent, func(int) int { return 0 }},
	{"static N/2", array.Coordinated, func(d int) int { return d / 2 }},
	{"adaptive", array.Coordinated, func(int) int { return array.AdaptiveCap }},
}

// arrayDeviceConfig is the member-device profile of the ×1–8 grid and the
// rebuild-under-fire study: the default device with the write-back
// interval compressed 10× (p = 500 ms, τ_expire = 3 s — N_wb stays at the
// paper's 6). An array serving heavy traffic crosses a GC-coordination
// decision point every p seconds, so the compressed interval packs
// hundreds of coordination rounds into a tractable run; with the paper's
// p = 5 s a grid cell would need millions of requests before the modes
// could differ measurably. The short interval also gives the coordinator
// several ticks inside each inter-burst gap, which is where it shifts the
// collection work.
func arrayDeviceConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cache.FlusherPeriod = 500 * time.Millisecond
	cfg.Cache.Expire = 3 * time.Second
	return cfg
}

// arrayTinyDeviceConfig is the member-device profile of the wide sweep: a
// deliberately tiny device (2 × 32 × 32 × 4 KiB = 8 MiB raw) with a small
// cache and the compressed 500 ms write-back interval, so a 64-member array
// reaches GC pressure on every device within a short run. The study
// measures coordination across members, not per-device behavior, so member
// capacity is the knob sacrificed for width. RunArray preconditions each
// member as it does any device.
func arrayTinyDeviceConfig() sim.Config {
	cfg := arrayDeviceConfig()
	cfg.FTL.Geometry = nand.Geometry{
		Channels:        2,
		ChipsPerChannel: 1,
		BlocksPerChip:   32,
		PagesPerBlock:   32,
		PageSize:        4096,
	}
	cfg.Cache.CapacityPages = 1024
	return cfg
}

// arrayWidthCell runs one cell of a width sweep: bench under JIT-GC over
// acfg.Devices members of the dev profile. The offered load scales with
// the array, opt.Ops × Devices / perDevices requests, so per-device GC
// pressure stays constant across the sweep (otherwise wide arrays coast at
// WAF 1 and the comparison measures nothing).
func arrayWidthCell(opt Options, bench string, dev sim.Config, perDevices int, acfg array.Config) (array.Results, error) {
	cellOpt := opt.withDefaults()
	cellOpt.Ops = cellOpt.Ops * acfg.Devices / perDevices
	cellOpt.Config = &dev
	res, err := RunArray(bench, JIT(), acfg, cellOpt)
	if err != nil {
		return res, fmt.Errorf("array %s ×%d %s (K=%d): %w", bench, acfg.Devices, acfg.Mode, acfg.MaxConcurrentGC, err)
	}
	return res, nil
}

// arrayExp runs the array study in three parts.
//
// The ×1–8 grid runs every benchmark × device count × coordination mode
// under JIT-GC (one device only uncoordinated: there is nothing to
// coordinate). The independent rows are the unsynchronized baseline whose
// array-level tail latency degrades with width (any member collecting
// stalls a striped request); the coordinated rows show what the rotation
// token recovers.
//
// The wide sweep runs 16/32/64 tiny devices × coordination scheme on
// YCSB: at every width the static N/2 token and the adaptive cap are
// measured against the unsynchronized baseline on array p99.9 and the
// per-device p99 spread — the question is whether the coordinated tail
// advantage survives scaling, and what token width it takes.
//
// Rebuild under fire: a 4-device array with one spare loses member 1 to a
// fatal program fault just after preconditioning, once per redundancy
// scheme. Mirror and parity must serve every request throughout (degraded
// reads from the neighbor copy or row reconstruction) while the spare
// rebuilds in the background; the unprotected array fails fast until its
// salvage rebuild swaps the spare in.
func arrayExp(opt Options) ([]Table, error) {
	grid, err := arrayGrid(opt)
	if err != nil {
		return nil, err
	}
	wide, err := arrayWide(opt)
	if err != nil {
		return nil, err
	}
	rebuild, err := arrayRebuild(opt)
	if err != nil {
		return nil, err
	}
	return []Table{grid, wide, rebuild}, nil
}

// arrayGrid is the ×1–8 grid.
func arrayGrid(opt Options) (Table, error) {
	benches := Benchmarks()
	perBench := len(arrayGridCells)
	slots, err := gridCells(opt, len(benches)*perBench, func(i int) (array.Results, error) {
		return arrayWidthCell(opt, benches[i/perBench], arrayDeviceConfig(), 1, arrayGridCells[i%perBench])
	})
	if err != nil {
		return Table{}, err
	}

	t := Table{
		Title: "Array scaling: JIT-GC over N striped devices, independent vs coordinated BGC",
		Columns: []string{"benchmark", "devices", "coord", "IOPS", "WAF",
			"p99 (µs)", "p99.9 (µs)", "FGC", "WAF spread", "util min/max", "GC grant/deny/boost"},
	}
	for i, res := range slots {
		a := res.Array
		t.AddRow(benches[i/perBench],
			fmt.Sprintf("%d", res.Devices),
			string(res.Mode),
			fmt.Sprintf("%.0f", a.IOPS),
			fmt.Sprintf("%.3f", a.WAF),
			fmt.Sprintf("%.0f", float64(a.P99Latency)/float64(time.Microsecond)),
			fmt.Sprintf("%.0f", float64(res.P999Latency)/float64(time.Microsecond)),
			fmt.Sprintf("%d", a.FGCInvocations),
			fmt.Sprintf("%.3f", res.WAFSpread()),
			fmt.Sprintf("%.2f/%.2f", res.UtilMin, res.UtilMax),
			fmt.Sprintf("%d/%d/%d", res.GCGranted, res.GCDenied, res.GCBoosted))
	}
	return t, nil
}

// arrayWide is the 16/32/64-device coordination sweep. Its offered load
// is opt.Ops × devices/4, which keeps the 64-device cell tractable on the
// tiny member geometry.
func arrayWide(opt Options) (Table, error) {
	nModes := len(arrayWideModes)
	slots, err := gridCells(opt, len(arrayWideDeviceCounts)*nModes, func(i int) (array.Results, error) {
		d, m := arrayWideDeviceCounts[i/nModes], arrayWideModes[i%nModes]
		return arrayWidthCell(opt, "YCSB", arrayTinyDeviceConfig(), 4, array.Config{
			Devices:         d,
			Mode:            m.mode,
			MaxConcurrentGC: m.cap(d),
		})
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
		a := res.Array
		k := "-"
		if res.Mode == array.Coordinated {
			k = fmt.Sprintf("%d", res.ResolvedCap)
		}
		devMin, devMax := devP99Spread(res)
		t.AddRow(
			fmt.Sprintf("%d", res.Devices),
			arrayWideModes[i%nModes].name,
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
func devP99Spread(res array.Results) (min, max time.Duration) {
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

// arrayRebuild is the rebuild-under-fire study: one fatal member failure
// per redundancy scheme on a 4-device array with a standby spare.
func arrayRebuild(opt Options) (Table, error) {
	opt = opt.withDefaults()
	t := Table{
		Title: "Rebuild under fire: 4 devices + 1 spare, member 1 loses every program just after preconditioning",
		Columns: []string{"redundancy", "served", "failed fast", "torn",
			"degraded rd/wr", "rebuilt", "rebuild pages", "rebuild time"},
	}
	schemes := []array.Redundancy{array.RedundancyMirror, array.RedundancyParity, array.RedundancyNone}
	slots, err := gridCells(opt, len(schemes), func(i int) (array.Results, error) {
		return runRebuildUnderFire(schemes[i], opt)
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
func runRebuildUnderFire(red array.Redundancy, opt Options) (array.Results, error) {
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
		return array.Results{}, err
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
		return array.Results{}, err
	}
	res, err := arr.RunClosedLoop(reqs)
	if err != nil {
		return array.Results{}, fmt.Errorf("array rebuild under fire (%s): %w", red, err)
	}
	res.Array.Workload = "YCSB"
	return res, nil
}
