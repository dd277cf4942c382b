// Command bench is the repo's performance benchmark: it runs one workload
// of the simulator stack for a fixed measuring time and prints every metric
// by name, checks the outputs, and ends with one JSON result line.
//
//	bash bench/run.sh --workload single_buffered --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload single_buffered --seed 1 --seconds 10 --trace 1
//	bash bench/run.sh --suite --seed 1 --rounds 10 --out a.json
//	bash bench/run.sh --compare a.json b.json
//
// BENCHMARK.json at the repo root names the workloads and metrics; README.md
// beside this file says what each means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "workload generation seed")
		seconds = flag.Float64("seconds", 10, "measuring time of one run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass, counts and probes")
		quick   = flag.Bool("quick", false, "requests / 20 and a single repeat (tests only; never a recorded number)")
		suite   = flag.Bool("suite", false, "run every workload -rounds times as fresh child processes, round-robin, and write -out")
		rounds  = flag.Int("rounds", 10, "rounds of -suite; round i runs with seed -seed+i")
		out     = flag.String("out", "", "file -suite writes its summary to")
		compare = flag.Bool("compare", false, "compare two -suite files given as arguments against the bounds in BENCHMARK.json")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two suite files")
			os.Exit(2)
		}
		err = runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case *suite:
		err = runSuite(*seed, *rounds, *seconds, *out)
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ops := w.ops
		d := time.Duration(*seconds * float64(time.Second))
		k := subSeeds
		if *quick {
			ops, d, k = ops/20, 0, 1
		}
		var res result
		if *traced == 0 {
			res, err = runEndToEnd(w, *seed, ops, d, k)
		} else {
			res, err = runTraced(w, *seed, ops, *quick, ".bench_build/out/trace-"+w.name+".json")
		}
		if err == nil {
			err = printResult(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose output check failed: the result line is
// still printed, with "correct": false, and the exit code is non-zero.
var errIncorrect = errors.New("output check failed")

func printResult(res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runEndToEnd measures the workload untraced for d over k inputs and reports
// the end-to-end metrics: medians over the repeats for host time and set-up,
// means over the k inputs for allocation and the simulated statistics (the
// latter exact for a given seed), and the process's peak memory.
func runEndToEnd(w workload, seed int64, ops int, d time.Duration, k int) (result, error) {
	reps, err := measure(w, seed, ops, d, k)
	if err != nil {
		return result{}, err
	}
	var wall, cpu, setup []float64
	var iops, waf, bytes, objs float64
	var digests []any
	res := result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range reps {
		n := float64(r.out.attempted)
		wall = append(wall, float64(r.runWall.Nanoseconds())/n)
		cpu = append(cpu, float64(r.runCPU.Nanoseconds())/n)
		setup = append(setup, r.setup.Seconds())
		res.Attempted += r.out.attempted
		res.Failed += r.out.failed
		if i < k {
			iops += r.out.iops / float64(k)
			waf += r.out.waf / float64(k)
			bytes += float64(r.allocBytes) / n / float64(k)
			objs += float64(r.allocs) / n / float64(k)
			digests = append(digests, r.out.digest)
		}
		if err := checkOutcome(w, ops, r.out, reps[i%k].out); err != nil {
			fmt.Println("check failed:", err)
			res.Correct = false
		}
	}
	res.Metrics["host_ns_per_req"] = metric{median(wall), "ns"}
	res.Metrics["cpu_ns_per_req"] = metric{median(cpu), "ns"}
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	res.Metrics["alloc_bytes_per_req"] = metric{bytes, "B"}
	res.Metrics["allocs_per_req"] = metric{objs, "count"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	res.Metrics["sim_iops"] = metric{iops, "1/s"}
	res.Metrics["sim_waf"] = metric{waf, "ratio"}

	fmt.Printf("workload %s seed %d inputs %d requests/repeat %d repeats %d (tracing off)\n",
		w.name, seed, k, reps[0].out.attempted, len(reps))
	fmt.Printf("sim_digest %s\n", digestOf(digests...))
	printMetrics(res.Metrics)
	return res, nil
}

// checkOutcome is the output check of one repeat: the requested number of
// requests was attempted and none failed, the simulated statistics are sane,
// and the repeat agrees bit for bit with the first repeat of the same input.
func checkOutcome(w workload, ops int, out, first outcome) error {
	want := int64(ops) * int64(w.cells)
	switch {
	case out.attempted != want:
		return fmt.Errorf("%s: attempted %d requests, want %d", w.name, out.attempted, want)
	case out.failed != 0:
		return fmt.Errorf("%s: %d of %d requests failed", w.name, out.failed, out.attempted)
	case !(out.waf >= 1):
		return fmt.Errorf("%s: WAF %v below 1", w.name, out.waf)
	case !(out.iops > 0) || out.p99 <= 0:
		return fmt.Errorf("%s: empty result (IOPS %v, p99 %v)", w.name, out.iops, out.p99)
	case out.digest != first.digest:
		return fmt.Errorf("%s: sim_digest %s differs from %s on the same input", w.name, out.digest, first.digest)
	}
	return nil
}

// printMetrics prints every metric by name with its unit, sorted.
func printMetrics(metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-42s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}
