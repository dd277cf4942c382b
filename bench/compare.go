package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare needs: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// errRegression is returned by runCompare when a row is outside its bound.
var errRegression = errors.New("regression outside the benchmark's bound")

// runCompare prints one row per (workload, end-to-end metric): both medians
// with their quartiles, how much worse B is than A as a share of A, and the
// bound. A row whose run-to-run spread exceeds its bound is unresolved, not
// unchanged, unless every run of B reads better than every run of A. It
// also says, per workload, whether the simulated statistics (sim_digest)
// agree on the seeds both files ran.
func runCompare(w io.Writer, specPath, aPath, bPath string) error {
	var spec benchSpec
	var a, b suiteFile
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	bByName := map[string]suiteWorkload{}
	for _, wl := range b.Workloads {
		bByName[wl.Name] = wl
	}
	fmt.Fprintf(w, "A = %s (%s, n=%d)  B = %s (%s, n=%d)\n\n", aPath, short(a.Manifest.GitRevision), a.Manifest.Rounds,
		bPath, short(b.Manifest.GitRevision), b.Manifest.Rounds)
	fmt.Fprintln(w, "| workload | metric | A median [q1, q3] | B median [q1, q3] | B worse by | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	rows, regressions, unresolved := 0, 0, 0
	for _, wa := range a.Workloads {
		wb, ok := bByName[wa.Name]
		if !ok {
			return fmt.Errorf("workload %s is missing from %s", wa.Name, bPath)
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.Summary[m.Name], wb.Summary[m.Name]
			if sa.N == 0 || sb.N == 0 || sa.Median == 0 {
				return fmt.Errorf("%s/%s: missing from a suite file", wa.Name, m.Name)
			}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			worse := sign*(sb.Median-sa.Median)/sa.Median + 0 // + 0 turns IEEE -0 into 0
			spread := max((sa.Q3-sa.Q1)/sa.Median, (sb.Q3-sb.Q1)/sb.Median)
			verdict := "ok"
			switch {
			case spread > m.Bound && !allBetter(wa.Runs, wb.Runs, m.Name, sign):
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
				unresolved++
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "| %s | %s (%s) | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.2f%% | %.0f%% | %s |\n",
				wa.Name, m.Name, m.Unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, 100*worse, 100*m.Bound, verdict)
			rows++
		}
	}
	fmt.Fprintln(w)
	for _, wa := range a.Workloads {
		same, differ := digestAgreement(wa.Runs, bByName[wa.Name].Runs)
		switch {
		case same+differ == 0:
			fmt.Fprintf(w, "sim_digest %-18s no seed in common\n", wa.Name)
		case differ == 0:
			fmt.Fprintf(w, "sim_digest %-18s identical on all %d common seeds: every simulated statistic agrees\n", wa.Name, same)
		default:
			fmt.Fprintf(w, "sim_digest %-18s DIFFERS on %d of %d common seeds: the modelled design changed\n", wa.Name, differ, same+differ)
		}
	}
	fmt.Fprintf(w, "\n%d rows, %d regressions, %d unresolved\n", rows, regressions, unresolved)
	if regressions > 0 {
		return errRegression
	}
	return nil
}

func short(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []suiteRun, name string, sign float64) bool {
	for _, rb := range b {
		for _, ra := range a {
			if sign*(rb.Metrics[name]-ra.Metrics[name]) >= 0 {
				return false
			}
		}
	}
	return true
}

// digestAgreement counts the seeds both sides ran on which the digests
// agree and differ.
func digestAgreement(a, b []suiteRun) (same, differ int) {
	bySeed := map[int64]string{}
	for _, r := range a {
		bySeed[r.Seed] = r.Digest
	}
	for _, r := range b {
		if d, ok := bySeed[r.Seed]; ok {
			if d == r.Digest {
				same++
			} else {
				differ++
			}
		}
	}
	return same, differ
}
