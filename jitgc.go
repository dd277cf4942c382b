// Package jitgc is the public facade of the JIT-GC reproduction (Hahn, Lee,
// Kim: "To Collect or Not to Collect: Just-in-Time Garbage Collection for
// High-Performance SSDs with Long Lifetimes", DAC 2015).
//
// It wires the substrates — a timed NAND array, a page-mapping FTL with
// pluggable GC victim selection, a Linux-like write-back page cache, and a
// discrete-event simulator — to the paper's BGC invocation policies: the
// fixed-reserve lazy (L-BGC) and aggressive (A-BGC) heuristics, the
// adaptive device-only ADP-GC baseline, and JIT-GC itself.
//
// Typical use:
//
//	res, err := jitgc.Run("YCSB", jitgc.JIT(), jitgc.Options{})
//	fmt.Println(res.IOPS, res.WAF)
package jitgc

import (
	"fmt"
	"math"
	"runtime"

	"jitgc/internal/core"
	"jitgc/internal/ftl"
	"jitgc/internal/metrics"
	"jitgc/internal/sim"
	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
	"jitgc/internal/workload"
)

// Results is the per-run result record (IOPS, WAF, latency, GC and
// prediction statistics).
type Results = metrics.Results

// Table is an aligned text table used by the experiment reports.
type Table = metrics.Table

// PolicySpec selects and parameterizes a BGC invocation policy.
type PolicySpec struct {
	// Kind is one of "L-BGC", "A-BGC", "fixed", "ADP-GC", "TRIM-OP",
	// "JIT-GC", "no-BGC".
	Kind string
	// Factor sets C_resv = Factor × C_OP for Kind "fixed".
	Factor float64
	// JIT tunes the predictors for Kind "JIT-GC" only; the other adaptive
	// policies run their CDH trackers at the default percentile.
	JIT core.JITOptions
}

// Lazy returns the paper's L-BGC baseline (C_resv = 0.5 × C_OP).
func Lazy() PolicySpec { return PolicySpec{Kind: "L-BGC"} }

// Aggressive returns the paper's A-BGC baseline (C_resv = 1.5 × C_OP).
func Aggressive() PolicySpec { return PolicySpec{Kind: "A-BGC"} }

// Fixed returns a fixed-reserve policy with C_resv = factor × C_OP
// (the Fig. 2 sweep knob).
func Fixed(factor float64) PolicySpec { return PolicySpec{Kind: "fixed", Factor: factor} }

// ADP returns the adaptive device-only baseline ADP-GC.
func ADP() PolicySpec { return PolicySpec{Kind: "ADP-GC"} }

// TrimOP returns the adaptive over-provisioning policy for TRIM-rich
// hosts: the A-BGC reserve discounted by the CDH-tracked TRIM rate, floored
// at the L-BGC reserve (Frankie et al.'s effective-OP observation turned
// into an invocation policy).
func TrimOP() PolicySpec { return PolicySpec{Kind: "TRIM-OP"} }

// JIT returns the paper's JIT-GC policy.
func JIT() PolicySpec { return PolicySpec{Kind: "JIT-GC"} }

// Factory converts the spec into a simulator policy factory.
func (p PolicySpec) Factory() sim.PolicyFactory {
	return func(env *sim.Env) (core.Policy, error) {
		switch p.Kind {
		case "L-BGC":
			return core.NewLazyBGC(env.OPBytes()), nil
		case "A-BGC":
			return core.NewAggressiveBGC(env.OPBytes()), nil
		case "fixed":
			if !(p.Factor > 0 && p.Factor <= math.MaxFloat64) {
				return nil, fmt.Errorf("jitgc: fixed policy needs a positive factor, got %v", p.Factor)
			}
			return core.NewFixedBGC(env.OPBytes(), p.Factor), nil
		case "ADP-GC":
			return core.NewADPGC(env.WriteBack)
		case "TRIM-OP":
			return core.NewTrimOP(env.WriteBack, env.OPBytes())
		case "JIT-GC":
			j, err := core.NewJITGC(env.Cache, p.JIT)
			if err != nil {
				return nil, err
			}
			if err := env.FTL.SetSelector(ftl.SIPGreedy); err != nil {
				return nil, err
			}
			return j, nil
		case "no-BGC":
			return core.NewNoBGC(), nil
		default:
			return nil, fmt.Errorf("jitgc: unknown policy kind %q", p.Kind)
		}
	}
}

// Options configures a benchmark run.
type Options struct {
	// Seed drives workload generation (default 1).
	Seed int64
	// Ops is the number of host requests (default 100000).
	Ops int
	// WorkingSetPages bounds the benchmark's address space; 0 means half
	// the user capacity, as in the paper.
	WorkingSetPages int64
	// Config overrides the simulator configuration; zero value uses
	// sim.DefaultConfig with preconditioning of the working set. NAND
	// fault injection is armed here, through Config.FTL.Fault.
	Config *sim.Config
	// Workers bounds how many simulation runs the experiment grids execute
	// concurrently (each grid cell is an independent Simulator). 0 means
	// runtime.GOMAXPROCS(0); 1 recovers the serial runner. Results are
	// written into pre-indexed slots, so reports are byte-identical for
	// every worker count. Single-run entry points like Run ignore it.
	Workers int
	// Tracer, when non-nil, streams structured simulation events (request
	// completions, flush-tick decisions, GC episodes, erases) through the
	// telemetry layer. It is copied into the simulator configuration; grid
	// runners share one tracer across cells, so its sink must be
	// concurrent-safe (telemetry.JSONLSink, RingSink and binlog.BinSink
	// all are).
	Tracer *telemetry.Tracer
	// HostProfile, when non-empty, replaces the named paper benchmark with
	// a TRIM-rich host profile: "churn" (file create/delete churn with
	// discard-on-unlink) or "log" (SSDFS-style append-only log with
	// whole-segment TRIM). The benchmark argument of Run/GenerateStream is
	// then used only as the run label.
	HostProfile string
	// TrimRate is the host profile's steady-state trimmed share of the
	// working set in [0,1) (the Frankie et al. q). Ignored unless
	// HostProfile is set.
	TrimRate float64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Ops == 0 {
		o.Ops = 100000
	}
	o.Workers = o.workers()
	return o
}

// workers resolves the effective worker count for experiment grids.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// generator resolves the workload: the TRIM-rich host profile when
// HostProfile is set, the named paper benchmark otherwise.
func (o Options) generator(benchmark string) (workload.Generator, error) {
	if o.HostProfile != "" {
		return workload.Profile(o.HostProfile, o.TrimRate)
	}
	return workload.ByName(benchmark)
}

// fillFraction is the share of user capacity preconditioned with data
// before a run: the working set plus cold data beyond it, modelling a
// mostly-full filesystem whose hot half the benchmark overwrites. A working
// set larger than that is preconditioned whole.
const fillFraction = 0.90

// simConfig resolves the simulator configuration and working set.
func (o Options) simConfig() (sim.Config, int64) {
	var cfg sim.Config
	if o.Config != nil {
		cfg = *o.Config
	} else {
		cfg = sim.DefaultConfig()
	}
	user := ftl.UserPagesFor(cfg.FTL.Geometry.TotalPages(), cfg.FTL.OPRatio)
	ws := o.WorkingSetPages
	if ws == 0 {
		ws = user / 2
	}
	cfg.PreconditionPages = min(max(int64(fillFraction*float64(user)), ws), user)
	if o.Tracer != nil {
		cfg.Tracer = o.Tracer
	}
	return cfg, ws
}

// Run generates the named benchmark's request stream and executes it
// closed-loop under the given policy.
func Run(benchmark string, policy PolicySpec, opt Options) (Results, error) {
	res, _, err := runBenchmark(benchmark, policy.Factory(), opt)
	return res, err
}

// runBenchmark generates the named benchmark's request stream and executes
// it closed-loop on a simulator whose policy newPolicy builds, returning
// that simulator beside its results for callers that read more of it.
func runBenchmark(benchmark string, newPolicy sim.PolicyFactory, opt Options) (Results, *sim.Simulator, error) {
	reqs, cfg, err := GenerateStream(benchmark, opt)
	if err != nil {
		return Results{}, nil, err
	}
	return runStream(reqs, benchmark, newPolicy, cfg, true)
}

// GenerateStream produces the named benchmark's closed-loop request stream
// and the simulator configuration Run would use for it, for callers that
// want to drive the simulator directly (custom policies, trace export).
func GenerateStream(benchmark string, opt Options) ([]trace.Request, sim.Config, error) {
	opt = opt.withDefaults()
	gen, err := opt.generator(benchmark)
	if err != nil {
		return nil, sim.Config{}, err
	}
	cfg, ws := opt.simConfig()
	reqs, err := gen.Generate(workload.Params{
		Seed:            opt.Seed,
		Ops:             opt.Ops,
		WorkingSetPages: ws,
	})
	if err != nil {
		return nil, sim.Config{}, err
	}
	return reqs, cfg, nil
}

// RunTrace executes an explicit request stream under a policy. closedLoop
// selects whether request times are think times (true) or absolute arrival
// times (false, trace replay).
func RunTrace(reqs []trace.Request, name string, policy PolicySpec, cfg sim.Config, closedLoop bool) (Results, error) {
	res, _, err := runStream(reqs, name, policy.Factory(), cfg, closedLoop)
	return res, err
}

// runStream executes reqs on a simulator whose policy newPolicy builds and
// labels the result with name; closedLoop is as for RunTrace. It returns the
// simulator too, whose IntervalActuals the oracle replays.
func runStream(reqs []trace.Request, name string, newPolicy sim.PolicyFactory, cfg sim.Config, closedLoop bool) (Results, *sim.Simulator, error) {
	s, err := sim.New(cfg, newPolicy)
	if err != nil {
		return Results{}, nil, err
	}
	var res Results
	if closedLoop {
		res, err = s.RunClosedLoop(reqs)
	} else {
		res, err = s.Run(reqs)
	}
	if err != nil {
		return Results{}, nil, err
	}
	res.Workload = name
	return res, s, nil
}

// oraclePolicy builds the oracle policy reserving for future, the
// IntervalActuals of an A-BGC run of the same benchmark and options: the
// evaluation grid's second pass. It is a replay, not an upper bound
// (core.Oracle).
func oraclePolicy(future []int64) sim.PolicyFactory {
	return func(env *sim.Env) (core.Policy, error) { return core.NewOracle(future, env.WriteBack) }
}

// Benchmarks returns the six paper benchmark names in paper order.
func Benchmarks() []string {
	gens := workload.All()
	names := make([]string, len(gens))
	for i, g := range gens {
		names[i] = g.Name()
	}
	return names
}
