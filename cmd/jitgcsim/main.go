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
// toward, in [0,1); it is the profile's one setting. TRIM-OP is the
// adaptive over-provisioning policy that resizes the background-GC reserve
// from the observed TRIM stream.
//
// -fault-rate arms the seeded NAND fault model (seed -fault-seed) on the
// device configuration, at one rate for reads, programs and erases.
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
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"jitgc"
	"jitgc/internal/array"
	"jitgc/internal/ftl"
	"jitgc/internal/metrics"
	"jitgc/internal/nand"
	"jitgc/internal/sim"
	"jitgc/internal/telemetry"
	"jitgc/internal/telemetry/binlog"
	"jitgc/internal/tenant"
	"jitgc/internal/trace"
	"jitgc/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jitgcsim: ")

	var (
		bench    = flag.String("bench", "YCSB", "benchmark name (YCSB, Postmark, Filebench, Bonnie++, Tiobench, TPC-C)")
		policy   = flag.String("policy", "JIT-GC", "BGC policy (L-BGC, A-BGC, ADP-GC, TRIM-OP, JIT-GC, fixed, no-BGC)")
		factor   = flag.Float64("factor", 1.0, "C_resv factor for -policy fixed (× C_OP)")
		ops      = flag.Int("ops", 100000, "number of host requests")
		seed     = flag.Int64("seed", 1, "workload generation seed")
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
		slo      = flag.Duration("slo", tenant.DefaultSLO, "silver-class p99.9 SLO target (gold = slo/4, bronze = 5×slo); used with -tenants")
		rate     = flag.Float64("rate", 120, "aggregate arrival rate in req/s across all tenants; used with -tenants")
		profile  = flag.String("host-profile", "", "TRIM-rich host profile replacing -bench (churn, log)")
		trimRate = flag.Float64("trim-rate", 0, "steady-state trimmed fraction the host profile steers toward, in [0,1); used with -host-profile")
	)
	flag.Parse()

	mode, modeErr := array.ParseMode(*coord)
	redundancy, redErr := array.ParseRedundancy(*redun)
	arrivalKind, arrivalErr := tenant.ParseArrival(*arrival)
	var preset nand.ScalePreset
	var sizeErr, profileErr error
	if *size != "" {
		preset, sizeErr = nand.PresetByName(*size)
	}
	if *profile != "" {
		_, profileErr = workload.Profile(*profile, *trimRate)
	}
	switch {
	case *ops < 1:
		usageError("-ops must be at least 1, got %d", *ops)
	case *tenants < 0:
		usageError("-tenants must not be negative, got %d", *tenants)
	case *tenants > 0 && *ops%*tenants != 0:
		usageError("-ops must be a multiple of -tenants (each tenant issues -ops/-tenants requests), got %d for %d tenants: %d requests left over",
			*ops, *tenants, *ops%*tenants)
	case !(*rate > 0 && *rate <= math.MaxFloat64):
		usageError("-rate must be a positive finite req/s, got %v", *rate)
	case *slo <= 0:
		usageError("-slo must be positive, got %v", *slo)
	case arrivalErr != nil:
		usageError("-arrival: %v", arrivalErr)
	case *faultR < 0 || *faultR > 1:
		usageError("-fault-rate must be in [0,1], got %v", *faultR)
	case sizeErr != nil:
		usageError("-size: %v", sizeErr)
	case *devices < 1:
		usageError("-devices must be at least 1, got %d", *devices)
	case *stripe < 1:
		usageError("-stripe must be at least 1 page, got %d", *stripe)
	case *spares < 0:
		usageError("-spares must not be negative, got %d", *spares)
	case modeErr != nil:
		usageError("-coord: %v", modeErr)
	case redErr != nil:
		usageError("-redundancy: %v", redErr)
	case *devices == 1 && (*spares > 0 || redundancy != array.RedundancyNone):
		usageError("-spares and -redundancy need a multi-device array (-devices > 1)")
	case !(*trimRate >= 0 && *trimRate < 1):
		usageError("-trim-rate must be in [0,1), got %v", *trimRate)
	case profileErr != nil:
		usageError("-host-profile: %v", profileErr)
	case *profile != "" && (*traceIn != "" || *tenants > 0):
		usageError("-host-profile replaces the synthetic benchmark (no -trace or -tenants)")
	case *tenants > 0 && (*traceIn != "" || *devices > 1):
		usageError("-tenants drives the single shared device with synthetic tenant workloads (no -trace, no -devices)")
	case *devices > 1 && *traceIn != "":
		usageError("-devices > 1 supports synthetic benchmarks only (no -trace)")
	}

	if *pprofA != "" {
		addr, err := telemetry.ServeDebug(*pprofA)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "debug: pprof and expvar at http://%s/debug/pprof/\n", addr)
	}
	// The event file and the timeline are two sinks on one tracer: the
	// timeline is rebuilt from the flush_decision and snapshot events.
	var sinks []telemetry.Sink
	var eventSink interface {
		telemetry.Sink
		Count() int64
	}
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			log.Fatal(err)
		}
		if strings.HasSuffix(*events, ".jgb") {
			eventSink = binlog.NewBinSink(f, binlog.Options{})
		} else {
			eventSink = telemetry.NewJSONLSink(f)
		}
		sinks = append(sinks, eventSink)
	}
	timelineSink := &metrics.TimelineSink{}
	if *timeline != "" {
		sinks = append(sinks, timelineSink)
	}
	var tracer *telemetry.Tracer
	if len(sinks) > 0 {
		tracer = telemetry.New(telemetry.Tee(sinks...))
	}

	cfg := sim.DefaultConfig()
	if *size != "" {
		cfg = presetConfig(preset)
	}
	if *faultR > 0 {
		cfg.FTL.Fault = nand.FaultConfig{Seed: *faultS, ReadRate: *faultR, ProgramRate: *faultR, EraseRate: *faultR}
	}
	spec := jitgc.PolicySpec{Kind: *policy, Factor: *factor}
	opt := jitgc.Options{Seed: *seed, Ops: *ops, Tracer: tracer, Config: &cfg,
		HostProfile: *profile, TrimRate: *trimRate}
	// A host profile replaces the synthetic benchmark, so label the run
	// after it rather than the unused -bench default.
	label := *bench
	if *profile != "" {
		label = *profile
	}
	switch {
	case *tenants > 0:
		runMultiTenant(tenant.Config{
			Tenants: *tenants,
			Arrival: arrivalKind,
			Rate:    *rate / float64(*tenants),
			Classes: tenant.Ladder(*slo),
		}, spec, opt)
	case *devices > 1:
		runArray(label, spec, array.Config{
			Devices:     *devices,
			StripePages: *stripe,
			Mode:        mode,
			Spares:      *spares,
			Redundancy:  redundancy,
		}, opt)
	case *traceIn != "":
		printResults(replayTraceFile(*traceIn, *msr, spec, opt))
	default:
		printResults(jitgc.Run(label, spec, opt))
	}

	if tracer != nil {
		if err := tracer.Sink().Close(); err != nil {
			log.Fatalf("trace-events: %v", err)
		}
	}
	if eventSink != nil {
		fmt.Fprintf(os.Stderr, "trace-events: %d events written to %s\n", eventSink.Count(), *events)
	}
	if *timeline != "" {
		if err := writeTimelines(*timeline, timelineSink, *devices > 1); err != nil {
			log.Fatal(err)
		}
	}
}

// usageError reports a bad flag combination and exits with status 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jitgcsim: %s\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

// printResults prints a single-device run's record, or exits on its error.
func printResults(res jitgc.Results, err error) {
	if err != nil {
		log.Fatal(err)
	}
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

// presetConfig turns a -size capacity preset into a device configuration.
func presetConfig(preset nand.ScalePreset) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.FTL.Geometry = preset.Geo
	// Million-page presets drop payload integrity: they exist for
	// performance and memory studies, where the 8 bytes/page of tokens
	// would dominate the footprint being measured.
	cfg.FTL.DisableIntegrity = preset.Geo.TotalPages() >= 1<<20
	return cfg
}

// runMultiTenant runs the open-loop multi-tenant engine and prints the
// merged record plus the per-class SLO scoreboard.
func runMultiTenant(tcfg tenant.Config, spec jitgc.PolicySpec, opt jitgc.Options) {
	res, err := jitgc.RunMultiTenant(spec, tcfg, opt)
	if err != nil {
		log.Fatal(err)
	}
	d := res.Device
	fmt.Printf("workload             %s (%d tenants, %s arrivals)\n", d.Workload, res.Tenants, tcfg.Arrival)
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
// the merged record plus the per-device spread.
func runArray(bench string, spec jitgc.PolicySpec, acfg array.Config, opt jitgc.Options) {
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
	if res.Mode == array.Coordinated {
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
}

// writeTimelines writes the timeline the sink rebuilt to path. With perDevice
// the merged array timeline goes there and every device tag that reported,
// spares included, gets its own file <base>.devN<ext>.
func writeTimelines(path string, sink *metrics.TimelineSink, perDevice bool) error {
	merged := sink.Merged()
	if err := writeTimelineCSV(path, merged); err != nil {
		return err
	}
	if !perDevice {
		fmt.Fprintf(os.Stderr, "timeline: %d samples written to %s\n", len(merged), path)
		return nil
	}
	ext := filepath.Ext(path)
	base := strings.TrimSuffix(path, ext)
	devs := sink.PerDevice()
	for _, d := range slices.Sorted(maps.Keys(devs)) {
		if err := writeTimelineCSV(fmt.Sprintf("%s.dev%d%s", base, d, ext), devs[d]); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "timeline: %d merged samples written to %s (+%d per-device files)\n",
		len(merged), path, len(devs))
	return nil
}

func writeTimelineCSV(path string, points []metrics.TimelinePoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.WriteTimelineCSV(f, points); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayTraceFile replays a recorded trace on the device opt configures. A
// jitgc trace is preconditioned as jitgc.Run preconditions a benchmark, so
// a tracegen trace replays to -bench's results; an MSR trace to half the
// device's user capacity.
func replayTraceFile(path string, msr bool, spec jitgc.PolicySpec, opt jitgc.Options) (jitgc.Results, error) {
	f, err := os.Open(path)
	if err != nil {
		return jitgc.Results{}, err
	}
	defer f.Close()

	cfg := opt.SimConfig()
	user := ftl.UserPagesFor(cfg.FTL.Geometry.TotalPages(), cfg.FTL.OPRatio)
	var reqs []trace.Request
	if msr {
		cfg.PreconditionPages = user / 2
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
	// jitgc text traces carry think times (closed loop); MSR traces carry
	// absolute arrival timestamps (open loop).
	return jitgc.RunTrace(reqs, path, spec, cfg, !msr)
}
