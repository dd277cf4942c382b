// Command jitgcsim runs one benchmark under one BGC policy on the simulated
// SSD and prints the full result record.
//
// Usage:
//
//	jitgcsim -bench YCSB -policy JIT-GC [-ops N] [-seed S] [-factor F]
//
// Policies: L-BGC, A-BGC, ADP-GC, TRIM-OP, JIT-GC, no-BGC, or fixed (with
// -factor, C_resv = factor × C_OP).
//
// With -host-profile the synthetic benchmark is replaced by a TRIM-rich
// host scenario: "churn" (seeded file create/delete with discard-on-unlink)
// or "log" (append-only log-structured segments with whole-segment TRIMs).
// -trim-rate sets the steady-state trimmed fraction the profile steers
// toward. TRIM-OP is the adaptive over-provisioning policy that resizes the
// background-GC reserve from the observed TRIM stream.
//
// With -tenants N the run switches to the open-loop multi-tenant front end:
// N tenants with seeded -arrival processes feed bounded queues, a
// deficit-round-robin scheduler shares the device between QoS classes, and
// the report scores per-tenant p99.9 latency against the -slo ladder.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"jitgc"
	"jitgc/internal/ftl"
	"jitgc/internal/metrics"
	"jitgc/internal/nand"
	"jitgc/internal/sim"
	"jitgc/internal/telemetry"
	"jitgc/internal/telemetry/binlog"
	"jitgc/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jitgcsim: ")

	var (
		bench    = flag.String("bench", "YCSB", "benchmark name (YCSB, Postmark, Filebench, Bonnie++, Tiobench, TPC-C)")
		policy   = flag.String("policy", "JIT-GC", "BGC policy (L-BGC, A-BGC, ADP-GC, TRIM-OP, JIT-GC, fixed, no-BGC)")
		factor   = flag.Float64("factor", 1.0, "C_resv factor for -policy fixed (× C_OP)")
		ops      = flag.Int("ops", 0, "number of host requests (default 100000)")
		seed     = flag.Int64("seed", 1, "workload generation seed")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent runs for grid-style callers (a single simulation uses one)")
		noSIP    = flag.Bool("no-sip", false, "disable SIP victim filtering (JIT-GC only)")
		timeline = flag.String("timeline", "", "write per-interval state samples to this CSV file")
		traceIn  = flag.String("trace", "", "replay this trace file instead of a synthetic benchmark (jitgc text or binlog format, or MSR CSV with -msr)")
		msr      = flag.Bool("msr", false, "parse -trace as an MSR-Cambridge CSV block trace")
		devices  = flag.Int("devices", 1, "number of SSDs in a striped array (1 = single-device simulation)")
		stripe   = flag.Int64("stripe", 64, "array striping granularity in logical pages")
		coord    = flag.String("coord", "independent", "array GC coordination mode (independent, coordinated)")
		spares   = flag.Int("spares", 0, "standby spare devices for the array (rebuild targets after a member failure)")
		redun    = flag.String("redundancy", "none", "array stripe protection (none, mirror, parity)")
		events   = flag.String("trace-events", "", "stream structured simulation events to this file (JSONL, or columnar binlog if it ends in .jgb)")
		pprofA   = flag.String("pprof", "", "serve pprof and expvar debug endpoints on this address (e.g. localhost:6060)")
		faultR   = flag.Float64("fault-rate", 0, "per-operation NAND failure probability (0 disables fault injection; enables FTL recovery)")
		faultS   = flag.Int64("fault-seed", 1, "fault model RNG seed, independent of -seed")
		size     = flag.String("size", "", "device capacity preset (256MiB, 1GiB, 4GiB, 16GiB, 64GiB); default is the built-in 256MiB geometry")
		tenants  = flag.Int("tenants", 0, "run the open-loop multi-tenant engine with this many tenants (0 = classic single-stream run)")
		arrival  = flag.String("arrival", "poisson", "tenant arrival process (poisson, mmpp, diurnal); used with -tenants")
		slo      = flag.Duration("slo", 0, "silver-class p99.9 SLO target (gold = slo/4, bronze = 5×slo); default 100ms; used with -tenants")
		rate     = flag.Float64("rate", 0, "aggregate arrival rate in req/s across all tenants (0 = 120); used with -tenants")
		profile  = flag.String("host-profile", "", "TRIM-rich host profile replacing -bench (churn, log)")
		trimRate = flag.Float64("trim-rate", 0, "steady-state trimmed fraction the host profile steers toward, in [0,1); used with -host-profile")
	)
	flag.Parse()

	if *faultR < 0 || *faultR > 1 {
		fmt.Fprintf(os.Stderr, "jitgcsim: -fault-rate must be in [0,1], got %v\n", *faultR)
		flag.Usage()
		os.Exit(2)
	}

	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "jitgcsim: -workers must be at least 1, got %d\n", *workers)
		flag.Usage()
		os.Exit(2)
	}
	if *devices < 1 {
		fmt.Fprintf(os.Stderr, "jitgcsim: -devices must be at least 1, got %d\n", *devices)
		flag.Usage()
		os.Exit(2)
	}
	if *devices == 1 && (*spares > 0 || *redun != "none") {
		fmt.Fprintf(os.Stderr, "jitgcsim: -spares and -redundancy need a multi-device array (-devices > 1)\n")
		flag.Usage()
		os.Exit(2)
	}
	if *trimRate < 0 || *trimRate >= 1 {
		fmt.Fprintf(os.Stderr, "jitgcsim: -trim-rate must be in [0,1), got %v\n", *trimRate)
		flag.Usage()
		os.Exit(2)
	}
	if *profile != "" && (*traceIn != "" || *tenants > 0 || *devices > 1) {
		fmt.Fprintf(os.Stderr, "jitgcsim: -host-profile drives a single synthetic device (no -trace, -tenants, or -devices)\n")
		flag.Usage()
		os.Exit(2)
	}

	if *pprofA != "" {
		addr, err := telemetry.ServeDebug(*pprofA)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "debug: pprof and expvar at http://%s/debug/pprof/\n", addr)
	}
	var sink interface {
		telemetry.Sink
		Count() int64
	}
	var tracer *telemetry.Tracer
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			log.Fatal(err)
		}
		if strings.HasSuffix(*events, ".jgb") {
			sink = binlog.NewBinSink(f, binlog.Options{})
		} else {
			sink = telemetry.NewJSONLSink(f)
		}
		tracer = telemetry.New(sink)
	}
	closeSink := func() {
		if sink == nil {
			return
		}
		if err := sink.Close(); err != nil {
			log.Fatalf("trace-events: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace-events: %d events written to %s\n", sink.Count(), *events)
	}

	spec := jitgc.PolicySpec{Kind: *policy, Factor: *factor, DisableSIP: *noSIP}
	opt := jitgc.Options{Seed: *seed, Ops: *ops, Workers: *workers, Tracer: tracer,
		FaultRate: *faultR, FaultSeed: *faultS,
		HostProfile: *profile, TrimRate: *trimRate}
	if *size != "" {
		cfg, err := presetConfig(*size)
		if err != nil {
			log.Fatal(err)
		}
		opt.Config = &cfg
	}
	if *tenants > 0 {
		if *traceIn != "" || *devices > 1 {
			log.Fatal("-tenants drives the single shared device with synthetic tenant workloads (no -trace, no -devices)")
		}
		runMultiTenant(*tenants, *arrival, *slo, *rate, spec, opt)
		closeSink()
		return
	}
	if *devices > 1 {
		if *traceIn != "" {
			log.Fatal("-devices > 1 supports synthetic benchmarks only (no -trace)")
		}
		runArray(*bench, spec, jitgc.ArrayConfig{
			Devices:      *devices,
			StripePages:  *stripe,
			Coordination: *coord,
			Spares:       *spares,
			Redundancy:   *redun,
		}, opt, *timeline)
		closeSink()
		return
	}
	// A host profile replaces the synthetic benchmark, so label the run
	// after it rather than the unused -bench default.
	label := *bench
	if *profile != "" {
		label = *profile
	}
	var (
		res jitgc.Results
		err error
	)
	switch {
	case *traceIn != "":
		res, err = replayTraceFile(*traceIn, *msr, spec, *timeline, tracer)
	default:
		res, err = runBenchmark(label, spec, opt, *timeline)
	}
	if err != nil {
		log.Fatal(err)
	}
	closeSink()

	fmt.Printf("benchmark            %s\n", res.Workload)
	fmt.Printf("policy               %s\n", res.Policy)
	fmt.Printf("requests             %d\n", res.Requests)
	fmt.Printf("simulated time       %v\n", res.SimTime.Round(1e6))
	fmt.Printf("IOPS                 %.0f\n", res.IOPS)
	fmt.Printf("WAF                  %.3f\n", res.WAF)
	fmt.Printf("host programs        %d pages\n", res.HostPrograms)
	fmt.Printf("GC migrations        %d pages (%d wasted)\n", res.GCMigrations, res.WastedMigrations)
	fmt.Printf("block erases         %d (wear min/max %d/%d)\n", res.Erases, res.MinErase, res.MaxErase)
	fmt.Printf("foreground GC        %d invocations\n", res.FGCInvocations)
	fmt.Printf("background GC        %d collections\n", res.BGCCollections)
	fmt.Printf("latency mean/p99/max %v / %v / %v\n",
		res.MeanLatency.Round(1e3), res.P99Latency.Round(1e3), res.MaxLatency.Round(1e3))
	if res.StreamingLatency {
		fmt.Printf("latency recorder     streaming histogram (percentiles bucket-accurate)\n")
	}
	fmt.Printf("buffered/direct      %.1f%% / %.1f%% of device writes\n",
		100*res.BufferedRatio(), 100*(1-res.BufferedRatio()))
	if res.Predictive {
		fmt.Printf("prediction accuracy  %.1f%%\n", 100*res.PredictionAccuracy)
		fmt.Printf("SIP-filtered victims %.1f%%\n", res.FilteredVictimPct)
	}
	if res.TrimmedPages > 0 {
		fmt.Printf("trimmed pages        %d (end-of-run live mapped %d)\n",
			res.TrimmedPages, res.MappedPages)
	}
	if res.InjectedFaults > 0 {
		fmt.Printf("injected faults      %d (%d program, %d erase)\n",
			res.InjectedFaults, res.ProgramFaults, res.EraseFaults)
		fmt.Printf("fault recovery       %d read retries, %d unrecoverable reads, %d blocks retired\n",
			res.ReadRetries, res.UnrecoverableReads, res.RetiredBlocks)
	}
}

// presetConfig resolves a -size capacity preset into a device configuration.
func presetConfig(size string) (sim.Config, error) {
	preset, err := nand.PresetByName(size)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig()
	cfg.FTL.Geometry = preset.Geo
	// Million-page presets drop payload integrity: they exist for
	// performance and memory studies, where the 8 bytes/page of tokens
	// would dominate the footprint being measured.
	cfg.FTL.DisableIntegrity = preset.Geo.TotalPages() >= 1<<20
	return cfg, nil
}

// withTimeline returns opt with per-interval timeline capture switched on,
// on top of whatever device configuration opt already carries (a -size
// preset) rather than in place of it.
func withTimeline(opt jitgc.Options) jitgc.Options {
	cfg := sim.DefaultConfig()
	if opt.Config != nil {
		cfg = *opt.Config
	}
	cfg.RecordTimeline = true
	opt.Config = &cfg
	return opt
}

// runMultiTenant runs the open-loop multi-tenant engine and prints the
// merged record plus the per-class SLO scoreboard.
func runMultiTenant(tenants int, arrival string, slo time.Duration, rate float64, spec jitgc.PolicySpec, opt jitgc.Options) {
	tcfg := jitgc.TenantConfig{Tenants: tenants, Arrival: arrival, SLO: slo}
	if rate > 0 {
		tcfg.Rate = rate / float64(tenants)
	}
	res, err := jitgc.RunMultiTenant(spec, tcfg, opt)
	if err != nil {
		log.Fatal(err)
	}
	d := res.Device
	fmt.Printf("workload             %s (%d tenants, %s arrivals)\n", d.Workload, res.Tenants, arrival)
	fmt.Printf("policy               %s\n", d.Policy)
	fmt.Printf("arrivals             %d (%d admitted, %d dropped)\n", res.Arrivals, res.Admitted, res.Dropped)
	fmt.Printf("completed            %d\n", res.Completed)
	fmt.Printf("simulated time       %v\n", res.Span.Round(1e6))
	fmt.Printf("WAF                  %.3f\n", d.WAF)
	fmt.Printf("foreground GC        %d invocations\n", d.FGCInvocations)
	fmt.Printf("background GC        %d collections\n", d.BGCCollections)
	fmt.Printf("latency p50/p99/p99.9 %v / %v / %v (includes queue wait)\n",
		time.Duration(res.Hist.Quantile(0.50)).Round(1e3),
		time.Duration(res.Hist.Quantile(0.99)).Round(1e3),
		time.Duration(res.Hist.Quantile(0.999)).Round(1e3))
	fmt.Printf("peak queue depth     %d\n", res.PeakQueueDepth)
	fmt.Printf("SLO violations       %d requests\n", res.Violations)
	fmt.Printf("SLO verdict          %d/%d tenants met their p99.9 target\n", res.SLOMet, res.SLOTenants)
	for _, c := range res.PerClass {
		fmt.Printf("  %-7s w=%d SLO=%-8v %d/%d tenants met, p99.9 %v, %d dropped\n",
			c.Class.Name, c.Class.Weight, c.Class.SLO, c.SLOMet, c.Tenants,
			time.Duration(c.Hist.Quantile(0.999)).Round(1e3), c.Dropped)
	}
}

// runArray runs a benchmark over the striped multi-device array and prints
// the merged record plus the per-device spread. With a timeline path it
// writes the merged array-level timeline there and each member's own
// timeline next to it as <base>.devN<ext>.
func runArray(bench string, spec jitgc.PolicySpec, acfg jitgc.ArrayConfig, opt jitgc.Options, timelinePath string) {
	if timelinePath != "" {
		opt = withTimeline(opt)
	}
	res, err := jitgc.RunArray(bench, spec, acfg, opt)
	if err != nil {
		log.Fatal(err)
	}
	a := res.Array
	fmt.Printf("benchmark            %s\n", a.Workload)
	fmt.Printf("policy               %s\n", a.Policy)
	fmt.Printf("array                %d devices, %d-page stripes, %s GC, %s redundancy\n",
		res.Devices, res.StripePages, res.Mode, res.Redundancy)
	fmt.Printf("requests             %d\n", a.Requests)
	fmt.Printf("simulated time       %v\n", a.SimTime.Round(1e6))
	fmt.Printf("IOPS                 %.0f\n", a.IOPS)
	fmt.Printf("WAF                  %.3f (per device %.3f..%.3f)\n", a.WAF, res.WAFMin, res.WAFMax)
	fmt.Printf("host programs        %d pages\n", a.HostPrograms)
	fmt.Printf("GC migrations        %d pages (%d wasted)\n", a.GCMigrations, a.WastedMigrations)
	fmt.Printf("block erases         %d (wear min/max %d/%d)\n", a.Erases, a.MinErase, a.MaxErase)
	fmt.Printf("foreground GC        %d invocations\n", a.FGCInvocations)
	fmt.Printf("background GC        %d collections\n", a.BGCCollections)
	fmt.Printf("latency mean/p99/p99.9/max %v / %v / %v / %v\n",
		a.MeanLatency.Round(1e3), a.P99Latency.Round(1e3), res.P999Latency.Round(1e3), a.MaxLatency.Round(1e3))
	if a.StreamingLatency {
		fmt.Printf("latency recorder     streaming histogram (percentiles bucket-accurate)\n")
	}
	fmt.Printf("write utilization    %.2f..%.2f of even-striping ideal\n", res.UtilMin, res.UtilMax)
	if res.Mode == "coordinated" {
		fmt.Printf("GC token             %d granted / %d denied / %d boosted / %d bypassed (cap %d)\n",
			res.GCGranted, res.GCDenied, res.GCBoosted, res.GCBypassed, res.ResolvedCap)
	}
	if len(res.Degraded) > 0 || len(res.Rebuilt) > 0 {
		fmt.Printf("degraded             %v (%d requests failed fast, %d stripes torn)\n",
			res.Degraded, res.FailedRequests, res.TornStripes)
		fmt.Printf("degraded service     %d reads / %d writes served from redundancy\n",
			res.DegradedReads, res.DegradedWrites)
		fmt.Printf("rebuild              slots %v rebuilt onto spares: %d pages in %v (%d spares left)\n",
			res.Rebuilt, res.RebuildPages, res.RebuildTime.Round(1e6), res.SparesRemaining)
	}
	if a.Predictive {
		fmt.Printf("prediction accuracy  %.1f%%\n", 100*a.PredictionAccuracy)
	}
	if timelinePath != "" {
		if err := writeArrayTimelines(timelinePath, res); err != nil {
			log.Fatal(err)
		}
	}
}

// writeArrayTimelines writes the merged array timeline to path and every
// member device's timeline to <base>.devN<ext>.
func writeArrayTimelines(path string, res jitgc.ArrayResults) error {
	writeCSV := func(p string, points []metrics.TimelinePoint) error {
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		if err := metrics.WriteTimelineCSV(f, points); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := writeCSV(path, res.MergedTimeline); err != nil {
		return err
	}
	ext := filepath.Ext(path)
	base := strings.TrimSuffix(path, ext)
	for i, tl := range res.Timelines {
		if err := writeCSV(fmt.Sprintf("%s.dev%d%s", base, i, ext), tl); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "timeline: %d merged samples written to %s (+%d per-device files)\n",
		len(res.MergedTimeline), path, len(res.Timelines))
	return nil
}

// runBenchmark runs a synthetic benchmark, optionally capturing a timeline.
func runBenchmark(bench string, spec jitgc.PolicySpec, opt jitgc.Options, timelinePath string) (jitgc.Results, error) {
	if timelinePath == "" {
		return jitgc.Run(bench, spec, opt)
	}
	reqs, cfg, err := jitgc.GenerateStream(bench, opt)
	if err != nil {
		return jitgc.Results{}, err
	}
	cfg.RecordTimeline = true
	return runWithTimeline(reqs, bench, spec, cfg, true, timelinePath)
}

// replayTraceFile replays a recorded trace open-loop.
func replayTraceFile(path string, msr bool, spec jitgc.PolicySpec, timelinePath string, tracer *telemetry.Tracer) (jitgc.Results, error) {
	f, err := os.Open(path)
	if err != nil {
		return jitgc.Results{}, err
	}
	defer f.Close()

	cfg := sim.DefaultConfig()
	user := ftl.UserPagesFor(cfg.FTL.Geometry.TotalPages(), cfg.FTL.OPRatio)
	var reqs []trace.Request
	if msr {
		reqs, err = trace.DecodeMSR(f, trace.MSROptions{Disk: -1, MaxLPN: user})
	} else {
		br := bufio.NewReaderSize(f, 1<<16)
		prefix, _ := br.Peek(len(binlog.Magic))
		if binlog.IsBinary(prefix) {
			reqs, err = binlog.DecodeRequests(br)
		} else {
			reqs, err = trace.Decode(br)
		}
	}
	if err != nil {
		return jitgc.Results{}, err
	}
	cfg.PreconditionPages = user / 2
	cfg.RecordTimeline = timelinePath != ""
	cfg.Tracer = tracer
	// jitgc text traces carry think times (closed loop); MSR traces carry
	// absolute arrival timestamps (open loop).
	return runWithTimeline(reqs, path, spec, cfg, !msr, timelinePath)
}

func runWithTimeline(reqs []trace.Request, name string, spec jitgc.PolicySpec, cfg sim.Config, closed bool, timelinePath string) (jitgc.Results, error) {
	s, err := sim.New(cfg, spec.Factory())
	if err != nil {
		return jitgc.Results{}, err
	}
	var res jitgc.Results
	if closed {
		res, err = s.RunClosedLoop(reqs)
	} else {
		res, err = s.Run(reqs)
	}
	if err != nil {
		return jitgc.Results{}, err
	}
	res.Workload = name
	if timelinePath != "" {
		out, err := os.Create(timelinePath)
		if err != nil {
			return res, err
		}
		if err := metrics.WriteTimelineCSV(out, s.Timeline()); err != nil {
			out.Close()
			return res, err
		}
		if err := out.Close(); err != nil {
			return res, err
		}
		fmt.Fprintf(os.Stderr, "timeline: %d samples written to %s\n", len(s.Timeline()), timelinePath)
	}
	return res, nil
}
