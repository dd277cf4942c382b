package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// suiteFile is what -suite writes: enough to reproduce the numbers (the
// manifest), every run's raw values, and per metric the median and
// quartiles over the runs.
type suiteFile struct {
	Manifest  manifest        `json:"manifest"`
	Workloads []suiteWorkload `json:"workloads"`
	// Claim is always null: defining or re-measuring the benchmark claims
	// no gain. A change that does claim one cites rows of a -compare table.
	Claim *string `json:"claim"`
}

type manifest struct {
	GitRevision string         `json:"git_revision"`
	GitDirty    bool           `json:"git_dirty"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"nproc"`
	Seed        int64          `json:"seed"`
	Rounds      int            `json:"rounds"`
	Seconds     float64        `json:"seconds"`
	Inputs      int            `json:"inputs_per_run"`
	Requests    map[string]int `json:"requests_per_repeat"`
	Start       time.Time      `json:"start_time"`
}

type suiteWorkload struct {
	Name     string             `json:"name"`
	Runs     []suiteRun         `json:"runs"`
	Summary  map[string]summary `json:"summary"`
	PerLayer map[string]metric  `json:"per_layer"`
}

// suiteRun is one fresh-process run of a workload, as the driver would make
// it.
type suiteRun struct {
	Seed      int64              `json:"seed"`
	Digest    string             `json:"sim_digest"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// gitState reports the checked-out revision and whether the tree is dirty;
// outside a git checkout (the driver's) it reports "unknown".
func gitState() (rev string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err != nil || len(bytes.TrimSpace(st)) > 0
}

// runChild runs this binary once as a fresh process (users pay cold-process
// cost on every invocation, and peak RSS only means something per process)
// and parses what it printed.
func runChild(exe string, w workload, seed int64, seconds float64, traced int) (result, string, error) {
	cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, "", fmt.Errorf("%s seed %d trace %d: %w\n%s", w.name, seed, traced, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, "", fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
	}
	digest := ""
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "sim_digest "); ok {
			digest = d
		}
	}
	return res, digest, nil
}

// runSuite runs every workload rounds times, round-robin so that a slow
// minute of the machine is spread over all workloads instead of landing on
// one, then one traced run per workload, and writes the summary. Round i
// runs with seed+i. Nothing is written if any run fails its output check.
func runSuite(seed int64, rounds int, seconds float64, outPath string) error {
	if outPath == "" {
		return fmt.Errorf("-suite needs -out")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rev, dirty := gitState()
	file := suiteFile{Manifest: manifest{
		GitRevision: rev, GitDirty: dirty, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Rounds: rounds, Seconds: seconds, Inputs: subSeeds,
		Requests: map[string]int{}, Start: time.Now().UTC(),
	}}
	ws := workloads()
	for _, w := range ws {
		file.Manifest.Requests[w.name] = w.ops
		file.Workloads = append(file.Workloads, suiteWorkload{Name: w.name})
	}
	units := map[string]string{}
	for round := 0; round < rounds; round++ {
		for i, w := range ws {
			s := seed + int64(round)
			res, digest, err := runChild(exe, w, s, seconds, 0)
			if err != nil {
				return err
			}
			run := suiteRun{Seed: s, Digest: digest, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
			for k, m := range res.Metrics {
				run.Metrics[k] = m.Value
				units[k] = m.Unit
			}
			file.Workloads[i].Runs = append(file.Workloads[i].Runs, run)
			fmt.Fprintf(os.Stderr, "round %d/%d %-18s host_ns_per_req %.1f\n", round+1, rounds, w.name, run.Metrics["host_ns_per_req"])
		}
	}
	for i, w := range ws {
		res, _, err := runChild(exe, w, seed, seconds, 1)
		if err != nil {
			return err
		}
		file.Workloads[i].PerLayer = res.Metrics
		fmt.Fprintf(os.Stderr, "traced %-18s overhead ratio %.3f\n", w.name, res.Metrics["bench.trace_overhead_ratio"].Value)
	}
	for i := range file.Workloads {
		sw := &file.Workloads[i]
		sw.Summary = map[string]summary{}
		for k, unit := range units {
			xs := make([]float64, len(sw.Runs))
			for j, r := range sw.Runs {
				xs[j] = r.Metrics[k]
			}
			q1, q2, q3 := quartiles(xs)
			sw.Summary[k] = summary{Unit: unit, Median: q2, Q1: q1, Q3: q3, N: len(xs)}
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}
