package main

import (
	"fmt"
	"time"
)

// perLayerUnits names every per-layer metric a traced run reports, with its
// unit: the same list BENCHMARK.json declares. A metric that does not apply
// to the workload at hand (an array count on a single device) reads 0.
var perLayerUnits = map[string]string{
	// Spans: host time of the calls into each layer, from the traced pass.
	// A share is the layer's self time over the traced pass's wall time
	// (generation + set-up + run).
	"workload.generate_ns_per_req":  "ns",
	"workload.generate_share":       "ratio",
	"sim.new_s":                     "s",
	"sim.precondition_s":            "s",
	"sim.step_request_ns_per_req":   "ns",
	"sim.step_request_share":        "ratio",
	"sim.tick_flush_ns_per_tick":    "ns",
	"sim.tick_flush_share":          "ratio",
	"core.tick_decide_ns_per_tick":  "ns",
	"core.tick_decide_share":        "ratio",
	"sim.tick_apply_ns_per_tick":    "ns",
	"sim.tick_apply_share":          "ratio",
	"sim.results_s":                 "s",
	"array.new_s":                   "s",
	"array.run_ns_per_req":          "ns",
	"array.ns_per_subreq":           "ns",
	"tenant.new_s":                  "s",
	"tenant.run_ns_per_req":         "ns",
	"jitgc.grid_run_ns_per_req":     "ns",
	"bench.stepped_loop_self_share": "ratio",
	"bench.trace_overhead_ratio":    "ratio",
	"bench.span_count":              "count",

	// Counts: exact, from the result records and the layers' own counters.
	"sim.requests":               "count",
	"sim.ticks":                  "count",
	"sim.mean_ms":                "ms",
	"sim.p99_ms":                 "ms",
	"pagecache.written_pages":    "count",
	"pagecache.flushed_pages":    "count",
	"pagecache.expired_flushes":  "count",
	"pagecache.pressure_flushes": "count",
	"pagecache.overwrite_ratio":  "ratio",
	"pagecache.read_hit_pages":   "count",
	"predictor.accuracy":         "ratio",
	"ftl.host_programs":          "count",
	"ftl.gc_migrations":          "count",
	"ftl.wasted_migration_ratio": "ratio",
	"ftl.erases":                 "count",
	"ftl.fgc_invocations":        "count",
	"ftl.bgc_collections":        "count",
	"ftl.trimmed_pages":          "count",
	"ftl.filtered_victim_pct":    "%",
	"ftl.mapped_pages":           "count",
	"nand.reads":                 "count",
	"nand.programs":              "count",
	"nand.erases":                "count",
	"nand.wear_spread":           "count",
	"array.subreq_per_req":       "ratio",
	"array.gc_granted":           "count",
	"array.gc_denied":            "count",
	"array.gc_boosted":           "count",
	"array.resolved_cap":         "count",
	"array.util_spread":          "ratio",
	"array.waf_spread":           "ratio",
	"tenant.arrivals":            "count",
	"tenant.dropped":             "count",
	"tenant.peak_queue_depth":    "count",
	"tenant.slo_met_ratio":       "ratio",
	"tenant.p999_ms":             "ms",
	"telemetry.events_per_req":   "ratio",
	"binlog.bytes_per_event":     "B",
	"jitgc.grid_cells":           "count",
	"jitgc.jit_norm_iops_gmean":  "ratio",
	"jitgc.jit_norm_waf_gmean":   "ratio",
	"jitgc.paper_err_pp":         "pp",

	// Probes: each layer alone, host ns per operation.
	"nand.program_ns_per_page":                     "ns",
	"nand.read_ns_per_page":                        "ns",
	"nand.erase_ns_per_block":                      "ns",
	"ftl.write_ns_per_page":                        "ns",
	"ftl.read_ns_per_page":                         "ns",
	"ftl.trim_ns_per_page":                         "ns",
	"ftl.reclaim_ns_per_freed_page":                "ns",
	"ftl.probe_waf":                                "ratio",
	"ftl.waf_bracket_pos":                          "ratio",
	"ftl.meta_bytes_per_page":                      "B",
	"pagecache.write_ns_per_page":                  "ns",
	"pagecache.flush_ns_per_page":                  "ns",
	"pagecache.dirty_scan_ns_per_page":             "ns",
	"predictor.buffered_predict_ns_per_dirty_page": "ns",
	"predictor.cdh_observe_ns":                     "ns",
	"predictor.cdh_reserve_ns":                     "ns",
	"core.jit_oninterval_ns":                       "ns",
	"core.fixed_oninterval_ns":                     "ns",
	"core.schedule_ns":                             "ns",
	"histogram.add_ns":                             "ns",
	"histogram.percentile_ns":                      "ns",
	"metrics.latency_add_ns":                       "ns",
	"metrics.latency_p99_ns_per_sample":            "ns",
	"telemetry.loghist_add_ns":                     "ns",
	"telemetry.ring_emit_ns_per_event":             "ns",
	"telemetry.jsonl_emit_ns_per_event":            "ns",
	"binlog.encode_ns_per_event":                   "ns",
	"binlog.decode_ns_per_event":                   "ns",
	"trace.decode_ns_per_req":                      "ns",
	"trace.msr_decode_ns_per_req":                  "ns",
}

// traced is what the traced pass of one workload produced.
type traced struct {
	vals    map[string]float64 // span and count metrics
	out     outcome
	rec     *spanRecorder
	correct bool // the traced record equals the untraced references'
}

// tracedPass runs the workload once with a span recorder, between two
// untraced reference repeats, and returns the span and count metrics. On the
// single-device workloads it replaces RunClosedLoop with the stepped driver;
// the output check requires that both yield the same result record.
func tracedPass(w workload, in int64, ops int) (traced, error) {
	before, err := measureOnce(w, in, ops)
	if err != nil {
		return traced{}, err
	}

	rec := newSpanRecorder()
	root := rec.begin(rec.id("bench.traced_pass"))
	inst, err := w.setup(in, ops, rec)
	if err != nil {
		return traced{}, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	var out outcome
	ticks := 0
	runStart := time.Now()
	if inst.sim != nil {
		res, n, err := runStepped(inst, rec)
		if err != nil {
			return traced{}, fmt.Errorf("%s: stepped run: %w", w.name, err)
		}
		out, ticks = inst.finish(res), n
	} else if out, err = inst.run(); err != nil {
		return traced{}, fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	tracedRun := time.Since(runStart)
	rec.end(root)

	after, err := measureOnce(w, in, ops)
	if err != nil {
		return traced{}, err
	}
	tp := traced{vals: map[string]float64{}, out: out, rec: rec, correct: true}
	for _, ref := range []outcome{before.out, after.out} {
		// Equal digests mean the stepped driver (or the coarse-span run)
		// produced the record the untraced RunClosedLoop produced.
		if err := checkOutcome(w, ops, out, ref); err != nil {
			fmt.Println("check failed: traced pass:", err)
			tp.correct = false
		}
	}

	vals := tp.vals
	for k, v := range out.counts {
		vals[k] = v
	}
	vals["sim.ticks"] = float64(ticks)
	vals["sim.mean_ms"] = ms(out.meanLat)
	vals["sim.p99_ms"] = ms(out.p99)

	tot := rec.totals()
	wall := tot["bench.traced_pass"].total
	reqs := float64(out.attempted)
	secs := func(name string) float64 { return tot[name].total.Seconds() }
	nsPerReq := func(name string) float64 { return float64(tot[name].total.Nanoseconds()) / reqs }
	nsPerCall := func(name string) float64 {
		if tot[name].count == 0 {
			return 0
		}
		return float64(tot[name].total.Nanoseconds()) / float64(tot[name].count)
	}
	share := func(name string) float64 { return float64(tot[name].self) / float64(wall) }
	vals["workload.generate_ns_per_req"] = nsPerReq("workload.generate")
	vals["workload.generate_share"] = share("workload.generate")
	vals["sim.new_s"] = secs("sim.new")
	vals["sim.precondition_s"] = secs("sim.precondition")
	vals["sim.step_request_ns_per_req"] = nsPerCall("sim.step_request")
	vals["sim.step_request_share"] = share("sim.step_request")
	vals["sim.tick_flush_ns_per_tick"] = nsPerCall("sim.tick_flush")
	vals["sim.tick_flush_share"] = share("sim.tick_flush")
	vals["core.tick_decide_ns_per_tick"] = nsPerCall("core.tick_decide")
	vals["core.tick_decide_share"] = share("core.tick_decide")
	vals["sim.tick_apply_ns_per_tick"] = nsPerCall("sim.tick_apply")
	vals["sim.tick_apply_share"] = share("sim.tick_apply")
	vals["sim.results_s"] = secs("sim.results")
	vals["array.new_s"] = secs("array.new")
	vals["array.run_ns_per_req"] = nsPerReq("array.run")
	if sub := vals["array.subreq_per_req"]; sub > 0 {
		vals["array.ns_per_subreq"] = nsPerReq("array.run") / sub
	}
	vals["tenant.new_s"] = secs("tenant.new")
	vals["tenant.run_ns_per_req"] = nsPerReq("tenant.run")
	vals["jitgc.grid_run_ns_per_req"] = nsPerReq("jitgc.grid_run")
	vals["bench.stepped_loop_self_share"] = share("bench.stepped_loop")
	// Only the run phase differs between a traced and an untraced repeat.
	vals["bench.trace_overhead_ratio"] = float64(tracedRun) / median([]float64{float64(before.runWall), float64(after.runWall)})
	vals["bench.span_count"] = float64(len(rec.spans))
	return tp, nil
}

// runTraced reports the per-layer metrics of one workload: the traced pass
// (spans and counts) on the seed's first input, then the layer probes.
func runTraced(w workload, seed int64, ops int, quick bool, spansPath string) (result, error) {
	tp, err := tracedPass(w, inputSeed(seed, 0, subSeeds), ops)
	if err != nil {
		return result{}, err
	}
	vals, out := tp.vals, tp.out
	res := result{Correct: tp.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}

	div := 1
	if quick {
		div = 20
	}
	probes, err := runProbes(seed, div)
	if err != nil {
		fmt.Println("check failed:", err)
		res.Correct = false
	}
	for k, v := range probes {
		vals[k] = v
	}

	for k := range vals {
		if _, ok := perLayerUnits[k]; !ok {
			return result{}, fmt.Errorf("per-layer metric %q is not declared", k)
		}
	}
	for k, unit := range perLayerUnits {
		res.Metrics[k] = metric{vals[k], unit}
	}
	fmt.Printf("workload %s seed %d requests %d (traced pass: %d spans, written to %s)\n",
		w.name, seed, out.attempted, len(tp.rec.spans), spansPath)
	fmt.Printf("sim_digest %s\n", out.digest)
	printMetrics(res.Metrics)
	if err := tp.rec.write(spansPath); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}
