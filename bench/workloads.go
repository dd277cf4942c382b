package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
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
)

// workload is one set of inputs the benchmark runs. Everything the program
// under test receives is generated in setup from the seed.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json and
	// the README carry the same sentence).
	why string
	// ops is the number of simulated host requests one repeat attempts in
	// each of its cells (12 simulations on paper_grid, 1 elsewhere).
	ops, cells int
	// setup generates the inputs and builds and preconditions the simulated
	// system, so that the run phase is the event loop alone. rec, nil in
	// untraced runs, receives a span around each call into a layer.
	setup func(seed int64, ops int, rec *spanRecorder) (*instance, error)
}

// instance is one prepared repeat: a preconditioned system plus its inputs.
type instance struct {
	// run executes the event loop once and reports what the modelled SSD did.
	run func() (outcome, error)
	// sim, cfg and reqs are set on the single-device workloads only: they
	// let the traced pass drive the same simulator through the stepping API
	// instead of run. finish turns the stepped record into an outcome.
	sim    *sim.Simulator
	cfg    sim.Config
	reqs   []trace.Request
	finish func(metrics.Results) outcome
}

// outcome is what one run phase produced: the simulated end-to-end
// statistics, the failure account, a digest of the whole result record, and
// the exact per-layer counts.
type outcome struct {
	attempted, failed int64
	iops, waf         float64
	meanLat, p99      time.Duration
	digest            string
	counts            map[string]float64
}

// digestOf hashes a rendered result record: two runs that agree on every
// simulated statistic agree on this string.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// deviceCounts are the exact per-layer counts of one simulated device: the
// result record plus the page-cache and NAND counters behind it. nand0 is
// the NAND counter snapshot taken after preconditioning.
func deviceCounts(s *sim.Simulator, nand0 nand.Stats, res metrics.Results) map[string]float64 {
	cs := s.Cache().Stats()
	ns := s.FTL().Device().Stats()
	return map[string]float64{
		"sim.requests":               float64(res.Requests),
		"pagecache.written_pages":    float64(cs.WrittenPages),
		"pagecache.flushed_pages":    float64(cs.FlushedPages),
		"pagecache.expired_flushes":  float64(cs.ExpiredFlushes),
		"pagecache.pressure_flushes": float64(cs.PressureFlushes),
		"pagecache.overwrite_ratio":  ratio(cs.Overwrites, cs.WrittenPages),
		"pagecache.read_hit_pages":   float64(res.CacheReadHits),
		"predictor.accuracy":         res.PredictionAccuracy,
		"ftl.host_programs":          float64(res.HostPrograms),
		"ftl.gc_migrations":          float64(res.GCMigrations),
		"ftl.wasted_migration_ratio": ratio(res.WastedMigrations, res.GCMigrations),
		"ftl.erases":                 float64(res.Erases),
		"ftl.fgc_invocations":        float64(res.FGCInvocations),
		"ftl.bgc_collections":        float64(res.BGCCollections),
		"ftl.trimmed_pages":          float64(res.TrimmedPages),
		"ftl.filtered_victim_pct":    res.FilteredVictimPct,
		"ftl.mapped_pages":           float64(res.MappedPages),
		"nand.reads":                 float64(ns.Reads - nand0.Reads),
		"nand.programs":              float64(ns.Programs - nand0.Programs),
		"nand.erases":                float64(ns.Erases - nand0.Erases),
		"nand.wear_spread":           float64(res.MaxErase - res.MinErase),
	}
}

// deviceConfig resolves the simulator configuration exactly as jitgc.Run
// would for base (fill fraction, working set), without keeping the stream.
func deviceConfig(base sim.Config) (sim.Config, error) {
	_, cfg, err := jitgc.GenerateStream("YCSB", jitgc.Options{Ops: 1, Config: &base})
	return cfg, err
}

// compressedWriteBack is the member-device profile of the repo's array and
// multi-tenant experiments: p = 500 ms, τ_expire = 3 s, so that hundreds of
// coordination rounds fit in a run.
func compressedWriteBack() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cache.FlusherPeriod = 500 * time.Millisecond
	cfg.Cache.Expire = 3 * time.Second
	return cfg
}

// singleDevice prepares a closed-loop single-device repeat. extra, when
// set, amends the outcome after the run (the binlog workload closes its sink
// there).
func singleDevice(benchmark string, policy jitgc.PolicySpec, opt jitgc.Options, rec *spanRecorder, extra func(*outcome)) (*instance, error) {
	inst := &instance{}
	err := rec.in("workload.generate", func() (err error) {
		inst.reqs, inst.cfg, err = jitgc.GenerateStream(benchmark, opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = rec.in("sim.new", func() (err error) {
		inst.sim, err = sim.New(inst.cfg, policy.Factory())
		return err
	})
	if err != nil {
		return nil, err
	}
	s, reqs := inst.sim, inst.reqs
	if err := rec.in("sim.precondition", s.Begin); err != nil {
		return nil, err
	}
	nand0 := s.FTL().Device().Stats()
	inst.finish = func(res metrics.Results) outcome {
		out := outcome{
			attempted: int64(len(reqs)),
			failed:    int64(len(reqs)) - res.Requests,
			iops:      res.IOPS,
			waf:       res.WAF,
			meanLat:   res.MeanLatency,
			p99:       res.P99Latency,
			digest:    digestOf(res),
			counts:    deviceCounts(s, nand0, res),
		}
		if extra != nil {
			extra(&out)
		}
		return out
	}
	inst.run = func() (outcome, error) {
		res, err := s.RunClosedLoop(reqs)
		if err != nil {
			return outcome{}, err
		}
		return inst.finish(res), nil
	}
	return inst, nil
}

// countingWriter discards what it is given and counts the bytes, so a live
// BinSink does all of its encoding work without touching the disk.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func setupSingleBuffered(seed int64, ops int, rec *spanRecorder) (*instance, error) {
	return singleDevice("YCSB", jitgc.JIT(), jitgc.Options{Seed: seed, Ops: ops}, rec, nil)
}

func setupSingleDirect(seed int64, ops int, rec *spanRecorder) (*instance, error) {
	preset, err := nand.PresetByName("4GiB")
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	cfg.FTL.Geometry = preset.Geo
	cfg.FTL.DisableIntegrity = true // as jitgcsim -size sets it at ≥ 2^20 pages
	cfg.StreamingLatency = true     // the recorder multi-million-request runs use
	return singleDevice("TPC-C", jitgc.JIT(), jitgc.Options{Seed: seed, Ops: ops, Config: &cfg}, rec, nil)
}

func setupTrimChurn(seed int64, ops int, rec *spanRecorder) (*instance, error) {
	return singleDevice("churn", jitgc.TrimOP(),
		jitgc.Options{Seed: seed, Ops: ops, HostProfile: "churn", TrimRate: 0.25}, rec, nil)
}

func setupTiobenchBinlog(seed int64, ops int, rec *spanRecorder) (*instance, error) {
	w := &countingWriter{}
	sink := binlog.NewBinSink(w, binlog.Options{})
	opt := jitgc.Options{Seed: seed, Ops: ops, Tracer: telemetry.New(sink)}
	return singleDevice("Tiobench", jitgc.Aggressive(), opt, rec, func(out *outcome) {
		if err := sink.Close(); err != nil {
			out.failed = out.attempted
			return
		}
		out.counts["telemetry.events_per_req"] = ratio(sink.Count(), out.attempted)
		out.counts["binlog.bytes_per_event"] = ratio(w.n, sink.Count())
	})
}

func setupArray8Parity(seed int64, ops int, rec *spanRecorder) (*instance, error) {
	const devices = 8
	var arr *array.Array
	err := rec.in("array.new", func() error {
		dev, err := deviceConfig(compressedWriteBack())
		if err != nil {
			return err
		}
		arr, err = array.New(array.Config{
			Devices:     devices,
			StripePages: 64,
			Mode:        array.Coordinated,
			Redundancy:  array.RedundancyParity,
			Device:      dev,
		}, jitgc.JIT().Factory())
		return err
	})
	if err != nil {
		return nil, err
	}
	var reqs []trace.Request
	err = rec.in("workload.generate", func() (err error) {
		reqs, _, err = jitgc.GenerateStream("YCSB", jitgc.Options{Seed: seed, Ops: ops, WorkingSetPages: arr.UserPages() / 2})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = rec.in("sim.precondition", func() error {
		for i := 0; i < devices; i++ {
			if err := arr.Device(i).Begin(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	run := func() (outcome, error) {
		var res array.Results
		err := rec.in("array.run", func() (err error) {
			res, err = arr.RunClosedLoop(reqs)
			return err
		})
		if err != nil {
			return outcome{}, err
		}
		a := res.Array
		var sub int64
		for _, d := range res.PerDevice {
			sub += d.Requests
		}
		return outcome{
			attempted: int64(len(reqs)),
			// Requests the array failed fast are missing from a.Requests.
			failed:  int64(len(reqs)) - a.Requests,
			iops:    a.IOPS,
			waf:     a.WAF,
			meanLat: a.MeanLatency,
			p99:     a.P99Latency,
			digest:  digestOf(res),
			counts: map[string]float64{
				"sim.requests":         float64(a.Requests),
				"array.subreq_per_req": ratio(sub, a.Requests),
				"array.gc_granted":     float64(res.GCGranted),
				"array.gc_denied":      float64(res.GCDenied),
				"array.gc_boosted":     float64(res.GCBoosted),
				"array.resolved_cap":   float64(res.ResolvedCap),
				"array.util_spread":    res.UtilMax - res.UtilMin,
				"array.waf_spread":     res.WAFSpread(),
				"predictor.accuracy":   a.PredictionAccuracy,
				"ftl.host_programs":    float64(a.HostPrograms),
				"ftl.gc_migrations":    float64(a.GCMigrations),
				"ftl.erases":           float64(a.Erases),
				"ftl.fgc_invocations":  float64(a.FGCInvocations),
				"ftl.bgc_collections":  float64(a.BGCCollections),
			},
		}, nil
	}
	return &instance{run: run}, nil
}

func setupTenants1000Open(seed int64, ops int, rec *spanRecorder) (*instance, error) {
	const tenants = 1000
	const slo = 100 * time.Millisecond
	// The engine synthesises the tenant streams inside tenant.New, so
	// generation is part of that span here.
	var eng *tenant.Engine
	err := rec.in("tenant.new", func() error {
		dev, err := deviceConfig(compressedWriteBack())
		if err != nil {
			return err
		}
		eng, err = tenant.New(tenant.Config{
			Tenants:      tenants,
			OpsPerTenant: ops / tenants,
			Arrival:      tenant.MMPP,
			Rate:         120.0 / tenants, // the repo's "moderate" aggregate: sustainable, no drops
			Classes: []tenant.Class{
				{Name: "gold", Weight: 4, SLO: slo / 4},
				{Name: "silver", Weight: 2, SLO: slo},
				{Name: "bronze", Weight: 1, SLO: 5 * slo},
			},
			Seed:            seed,
			WorkingSetPages: ftl.UserPagesFor(dev.FTL.Geometry.TotalPages(), dev.FTL.OPRatio) / 2, // as jitgc.RunMultiTenant
			Device:          dev,
		}, jitgc.JIT().Factory())
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := rec.in("sim.precondition", eng.Sim().Begin); err != nil {
		return nil, err
	}
	run := func() (outcome, error) {
		var res tenant.Results
		err := rec.in("tenant.run", func() (err error) {
			res, err = eng.Run()
			return err
		})
		if err != nil {
			return outcome{}, err
		}
		if res.Arrivals != res.Completed+res.Dropped {
			return outcome{}, fmt.Errorf("tenant flow not conserved: %d arrivals, %d completed, %d dropped",
				res.Arrivals, res.Completed, res.Dropped)
		}
		d := res.Device
		return outcome{
			attempted: res.Arrivals,
			failed:    res.Dropped,
			iops:      d.IOPS,
			waf:       d.WAF,
			// Latency runs on the simulated clock from each request's
			// arrival, queue wait included, so generator lateness is 0.
			meanLat: time.Duration(res.Hist.Mean()),
			p99:     time.Duration(res.Hist.Quantile(0.99)),
			digest: digestOf(d, res.Arrivals, res.Admitted, res.Dropped, res.Completed,
				res.Violations, res.SLOMet, res.PeakQueueDepth, res.Hist.String(), res.Span),
			counts: map[string]float64{
				"sim.requests":            float64(d.Requests),
				"tenant.arrivals":         float64(res.Arrivals),
				"tenant.dropped":          float64(res.Dropped),
				"tenant.peak_queue_depth": float64(res.PeakQueueDepth),
				"tenant.slo_met_ratio":    ratio(int64(res.SLOMet), int64(res.SLOTenants)),
				"tenant.p999_ms":          ms(time.Duration(res.Hist.Quantile(0.999))),
				"predictor.accuracy":      d.PredictionAccuracy,
				"ftl.host_programs":       float64(d.HostPrograms),
				"ftl.gc_migrations":       float64(d.GCMigrations),
				"ftl.erases":              float64(d.Erases),
				"ftl.fgc_invocations":     float64(d.FGCInvocations),
				"ftl.bgc_collections":     float64(d.BGCCollections),
			},
		}, nil
	}
	return &instance{run: run}, nil
}

// paperTable2 is the paper's Table 2 row of JIT-GC prediction accuracies in
// percent, in jitgc.Benchmarks() order: the one numeric reference the repo
// holds.
var paperTable2 = []float64{98.9, 93.2, 97.3, 89.8, 86.1, 72.5}

// gridWorkers is the paperbench worker count the grid runs with; never more
// goroutines do work than min(2, nproc) allows on the reference box.
const gridWorkers = 2

// setupPaperGrid prepares the six paper benchmarks × {JIT-GC, A-BGC}: twelve
// preconditioned simulators whose run phase fans out over two goroutines,
// which is what regenerating the paper's tables costs.
func setupPaperGrid(seed int64, ops int, rec *spanRecorder) (*instance, error) {
	benches := jitgc.Benchmarks()
	policies := []jitgc.PolicySpec{jitgc.JIT(), jitgc.Aggressive()}
	type cell struct {
		s    *sim.Simulator
		reqs []trace.Request
		res  metrics.Results
		err  error
	}
	cells := make([]cell, 0, len(benches)*len(policies))
	for _, b := range benches {
		var reqs []trace.Request
		var cfg sim.Config
		err := rec.in("workload.generate", func() (err error) {
			reqs, cfg, err = jitgc.GenerateStream(b, jitgc.Options{Seed: seed, Ops: ops})
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, p := range policies {
			var s *sim.Simulator
			err := rec.in("sim.new", func() (err error) {
				s, err = sim.New(cfg, p.Factory())
				return err
			})
			if err != nil {
				return nil, err
			}
			if err := rec.in("sim.precondition", s.Begin); err != nil {
				return nil, err
			}
			cells = append(cells, cell{s: s, reqs: reqs})
		}
	}
	run := func() (outcome, error) {
		// The cells run on two goroutines, so the one-goroutine span
		// recorder times the grid as a whole and not cell by cell.
		grid := rec.begin(rec.id("jitgc.grid_run"))
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(gridWorkers)
		for w := 0; w < gridWorkers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					c := &cells[i]
					c.res, c.err = c.s.RunClosedLoop(c.reqs)
					c.res.Workload = benches[i/len(policies)]
				}
			}()
		}
		for i := range cells {
			next <- i
		}
		close(next)
		wg.Wait()
		rec.end(grid)

		out := outcome{counts: map[string]float64{"jitgc.grid_cells": float64(len(cells))}}
		var records []any
		lnIOPS, lnWAF, lnMean, lnP99, lnNormIOPS, lnNormWAF, errPP := 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
		for i := range cells {
			c := &cells[i]
			if c.err != nil {
				return outcome{}, fmt.Errorf("grid cell %d: %w", i, c.err)
			}
			out.attempted += int64(len(c.reqs))
			out.failed += int64(len(c.reqs)) - c.res.Requests
			records = append(records, c.res)
			if i%len(policies) != 0 {
				continue
			}
			jit, base := c.res, cells[i+1].res
			if cells[i+1].err != nil {
				return outcome{}, fmt.Errorf("grid cell %d: %w", i+1, cells[i+1].err)
			}
			lnIOPS += math.Log(jit.IOPS)
			lnWAF += math.Log(jit.WAF)
			lnMean += math.Log(float64(jit.MeanLatency))
			lnP99 += math.Log(float64(jit.P99Latency))
			lnNormIOPS += math.Log(jit.NormalizedIOPS(base))
			lnNormWAF += math.Log(jit.NormalizedWAF(base))
			errPP += math.Abs(100*jit.PredictionAccuracy - paperTable2[i/len(policies)])
			out.counts["sim.requests"] += float64(jit.Requests + base.Requests)
		}
		n := float64(len(benches))
		out.iops = math.Exp(lnIOPS / n)
		out.waf = math.Exp(lnWAF / n)
		out.meanLat = time.Duration(math.Exp(lnMean / n))
		out.p99 = time.Duration(math.Exp(lnP99 / n))
		out.digest = digestOf(records...)
		out.counts["jitgc.jit_norm_iops_gmean"] = math.Exp(lnNormIOPS / n)
		out.counts["jitgc.jit_norm_waf_gmean"] = math.Exp(lnNormWAF / n)
		out.counts["jitgc.paper_err_pp"] = errPP / n
		return out, nil
	}
	return &instance{run: run}, nil
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []workload {
	return []workload{
		{"single_buffered", "YCSB x JIT-GC on the default device: buffered writes, so page cache and predictor own most host time",
			150000, 1, setupSingleBuffered},
		{"single_direct", "TPC-C x JIT-GC on the 4GiB preset: direct writes bypass the cache, so FTL and NAND do the work",
			1000000, 1, setupSingleDirect},
		{"array8_parity", "YCSB over 8 parity-protected devices with coordinated GC: the only run of the array split and token loop",
			40000, 1, setupArray8Parity},
		{"tenants1000_open", "open loop, 1000 MMPP tenants at 120 req/s: the only run of the tenant arrival heap, queues and DRR",
			60000, 1, setupTenants1000Open},
		{"trim_churn", "churn host at q=0.25 x TRIM-OP: discards beside writes and a stateful generator that dominates set-up",
			200000, 1, setupTrimChurn},
		{"tiobench_binlog", "Tiobench x A-BGC with a live BinSink: the only run with a tracer, and the BGC-heaviest FTL run",
			400000, 1, setupTiobenchBinlog},
		{"paper_grid", "six paper benchmarks x {JIT-GC, A-BGC} on 2 goroutines: many short cells, as regenerating the tables costs",
			40000, 12, setupPaperGrid},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
