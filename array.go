package jitgc

import (
	"fmt"
	"time"

	"jitgc/internal/array"
	"jitgc/internal/sim"
	"jitgc/internal/workload"
)

// ArrayResults is the merged record of a multi-device array run: the
// array-level aggregate, every member device's own record, and the
// per-device spread statistics.
type ArrayResults = array.Results

// ArrayConfig selects the multi-device array backend: the request stream is
// striped over this many simulated SSDs, each running its own instance of
// the chosen BGC policy.
type ArrayConfig struct {
	// Devices is the number of member SSDs (default 4).
	Devices int
	// StripePages is the striping granularity in logical pages: 1 is
	// page-granular, larger values segment-granular (default 64 pages,
	// 256 KiB at 4 KiB pages).
	StripePages int64
	// Coordination is the GC coordination mode: "independent" (default,
	// every device collects on its own schedule) or "coordinated" (a
	// rotation token caps concurrent background collections, deferred
	// mid-burst unless the array is urgent: core.Schedule's verdict on the
	// members' aggregate forecast and free space with K collectors' GC
	// bandwidth, next-tick rule included).
	Coordination string
	// MaxConcurrentGC is the token width K in coordinated mode.
	// array.AdaptiveCap (-1) resizes K every interval from the aggregate
	// burn rate; the default is max(1, Devices/2) up to 8 devices and
	// adaptive beyond.
	MaxConcurrentGC int
	// Redundancy selects stripe protection: "none" (default), "mirror"
	// (chained declustering, capacity halves) or "parity" (rotated
	// RAID-5-style, capacity (N-1)/N). Mirror and parity serve requests
	// touching a degraded member instead of failing them fast.
	Redundancy string
	// Spares is the number of standby devices: when a member degrades, a
	// spare is attached and the shard rebuilt onto it in the background.
	Spares int
}

// withDefaults fills zero fields.
func (c ArrayConfig) withDefaults() ArrayConfig {
	if c.Devices == 0 {
		c.Devices = 4
	}
	return c
}

// RunArray generates the named benchmark's request stream, scaled to the
// array's capacity, and executes it closed-loop over the striped array.
// Think times and working-set sizing mirror Run: the working set defaults
// to half the array's addressable capacity, and each member device is
// preconditioned like a single-device run so per-device GC pressure matches
// the paper's setup regardless of array width. A set opt.HostProfile
// replaces the benchmark, whose name then only labels the run, as in Run.
func RunArray(benchmark string, policy PolicySpec, acfg ArrayConfig, opt Options) (ArrayResults, error) {
	opt = opt.withDefaults()
	acfg = acfg.withDefaults()
	gen, err := opt.generator(benchmark)
	if err != nil {
		return ArrayResults{}, err
	}

	// The device config is sized per member: an explicit working set is an
	// array-level figure, so each device preconditions for its 1/N share.
	devOpt := opt
	if devOpt.WorkingSetPages > 0 {
		n := int64(acfg.Devices)
		devOpt.WorkingSetPages = (opt.WorkingSetPages + n - 1) / n
	}
	cfg, _ := devOpt.simConfig()

	arr, err := array.New(array.Config{
		Devices:         acfg.Devices,
		StripePages:     acfg.StripePages,
		Mode:            array.Mode(acfg.Coordination),
		MaxConcurrentGC: acfg.MaxConcurrentGC,
		Redundancy:      array.Redundancy(acfg.Redundancy),
		Spares:          acfg.Spares,
		Device:          cfg,
	}, policy.Factory())
	if err != nil {
		return ArrayResults{}, err
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
		return ArrayResults{}, err
	}
	res, err := arr.RunClosedLoop(reqs)
	if err != nil {
		return ArrayResults{}, err
	}
	res.Array.Workload = benchmark
	return res, nil
}

// arrayDeviceCounts and arrayModes span the -exp array grid.
var (
	arrayDeviceCounts = []int{1, 2, 4, 8}
	arrayModes        = []string{string(array.Independent), string(array.Coordinated)}
)

// arrayDeviceConfig is the member-device profile of the -exp array grid:
// the default device with the write-back interval compressed 10×
// (p = 500 ms, τ_expire = 3 s — N_wb stays at the paper's 6). An array
// serving heavy traffic crosses a GC-coordination decision point every p
// seconds, so the compressed interval packs hundreds of coordination
// rounds into a tractable run; with the paper's p = 5 s a grid cell would
// need millions of requests before the modes could differ measurably. The
// short interval also gives the coordinator several ticks inside each
// inter-burst gap, which is where it shifts the collection work.
func arrayDeviceConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cache.FlusherPeriod = 500 * time.Millisecond
	cfg.Cache.Expire = 3 * time.Second
	return cfg
}

// arrayExp runs the array scaling grid: every benchmark × device count ×
// coordination mode under JIT-GC. The independent rows are the
// unsynchronized baseline whose array-level tail latency degrades with
// width (any member collecting stalls a striped request); the coordinated
// rows show what the rotation token recovers.
func arrayExp(opt Options) ([]Table, error) {
	benches := Benchmarks()
	perBench := len(arrayDeviceCounts) * len(arrayModes)
	slots, err := gridCells(opt, len(benches)*perBench, func(i int) (ArrayResults, error) {
		b := benches[i/perBench]
		d := arrayDeviceCounts[(i%perBench)/len(arrayModes)]
		m := arrayModes[i%len(arrayModes)]
		// The offered load scales with the array: N devices serve N× the
		// single-device request count, keeping per-device GC pressure
		// constant across the width sweep (otherwise wide arrays coast at
		// WAF 1 and the comparison measures nothing).
		cellOpt := opt.withDefaults()
		cellOpt.Ops *= d
		cfg := arrayDeviceConfig()
		cellOpt.Config = &cfg
		res, err := RunArray(b, JIT(), ArrayConfig{Devices: d, Coordination: m}, cellOpt)
		if err != nil {
			return res, fmt.Errorf("array %s ×%d %s: %w", b, d, m, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	t := Table{
		Title: "Array scaling: JIT-GC over N striped devices, independent vs coordinated BGC",
		Columns: []string{"benchmark", "devices", "coord", "IOPS", "WAF",
			"p99 (µs)", "p99.9 (µs)", "FGC", "WAF spread", "util min/max", "GC grant/deny/boost"},
	}
	for i, res := range slots {
		b := benches[i/perBench]
		a := res.Array
		t.AddRow(b,
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
	return []Table{t}, nil
}
