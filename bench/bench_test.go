package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// quickOps is the request count of the tests' quick mode.
func quickOps(w workload) int { return w.ops / 20 }

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestQuickSmoke runs every workload untraced and through the traced pass at
// a twentieth of its size: every output check holds, and the untraced run
// reports exactly the end-to-end metrics BENCHMARK.json declares, with their
// units.
func TestQuickSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads() {
		res, err := runEndToEnd(w, 1, quickOps(w), 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, %d declared", w.name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s: got %+v (present %v), declared unit %s", w.name, m.Name, got, ok, m.Unit)
			}
			if !(got.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, got.Value)
			}
		}
		if tp, err := tracedPass(w, 1, quickOps(w)); err != nil || !tp.correct {
			t.Errorf("%s: traced pass: correct=%v err=%v", w.name, tp.correct, err)
		}
	}
}

// TestTracedDeclaresEveryMetric runs one full traced run (spans, counts and
// probes) in quick mode: it reports exactly the per-layer metrics
// BENCHMARK.json declares, with their units, and writes its spans.
func TestTracedDeclaresEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	w, _ := workloadByName("single_buffered")
	spans := filepath.Join(t.TempDir(), "out", "spans.json")
	res, err := runTraced(w, 1, quickOps(w), true, spans)
	if err != nil || !res.Correct {
		t.Fatalf("traced run: correct=%v err=%v", res.Correct, err)
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("%d per-layer metrics reported, %d declared", len(res.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), declared unit %s", m.Name, got, ok, m.Unit)
		}
	}
	for _, name := range []string{"ftl.write_ns_per_page", "pagecache.flush_ns_per_page", "core.jit_oninterval_ns",
		"binlog.decode_ns_per_event", "trace.msr_decode_ns_per_req", "ftl.probe_waf", "sim.step_request_share"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want a measured value", name, res.Metrics[name].Value)
		}
	}
	var file struct {
		Names []string  `json:"names"`
		Spans [][]int64 `json:"spans"`
	}
	if err := readJSON(spans, &file); err != nil {
		t.Fatal(err)
	}
	if got := float64(len(file.Spans)); got != res.Metrics["bench.span_count"].Value || len(file.Names) == 0 {
		t.Errorf("span file holds %v spans and %d names, run reported %v", got, len(file.Names), res.Metrics["bench.span_count"].Value)
	}
}

// TestSteppedDriverMatchesRunClosedLoop: the harness's copy of the event
// loop over the stepping API yields the record RunClosedLoop yields, on each
// single-device workload and two seeds.
func TestSteppedDriverMatchesRunClosedLoop(t *testing.T) {
	for _, name := range []string{"single_buffered", "single_direct", "trim_churn", "tiobench_binlog"} {
		w, _ := workloadByName(name)
		for seed := int64(1); seed <= 2; seed++ {
			whole, err := w.setup(seed, 5000, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := whole.run()
			if err != nil {
				t.Fatal(err)
			}
			stepped, err := w.setup(seed, 5000, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := runStepped(stepped, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := stepped.finish(res)
			if got.digest != want.digest || got.iops != want.iops || got.waf != want.waf {
				t.Errorf("%s seed %d: stepped %s (IOPS %v WAF %v), RunClosedLoop %s (IOPS %v WAF %v)",
					name, seed, got.digest, got.iops, got.waf, want.digest, want.iops, want.waf)
			}
		}
	}
}

// TestSpanSelfTime: a span's self time is its duration minus its children's,
// for nested and for adjacent children.
func TestSpanSelfTime(t *testing.T) {
	r := newSpanRecorder()
	at := func(name string, parent int32, start, end time.Duration) {
		r.spans = append(r.spans, span{name: r.id(name), parent: parent, start: start, end: end})
	}
	at("root", -1, 0, 100)
	at("child", 0, 10, 30) // adjacent to the next child
	at("child", 0, 30, 60) //
	at("grand", 1, 15, 25) // nested in the first child
	at("other", -1, 200, 230)
	tot := r.totals()
	for name, want := range map[string]spanTotals{
		"root":  {count: 1, total: 100, self: 50},
		"child": {count: 2, total: 50, self: 40},
		"grand": {count: 1, total: 10, self: 10},
		"other": {count: 1, total: 30, self: 30},
	} {
		if tot[name] != want {
			t.Errorf("%s: got %+v, want %+v", name, tot[name], want)
		}
	}

	// begin/end maintain the parent links that arithmetic relies on.
	live := newSpanRecorder()
	outer := live.begin(live.id("outer"))
	inner := live.begin(live.id("inner"))
	live.end(inner)
	sibling := live.begin(live.id("inner"))
	live.end(sibling)
	live.end(outer)
	if live.spans[inner].parent != outer || live.spans[sibling].parent != outer || live.spans[outer].parent != -1 {
		t.Errorf("parent links: %+v", live.spans)
	}
	lt := live.totals()
	if lt["outer"].self != lt["outer"].total-lt["inner"].total {
		t.Errorf("outer self %v, total %v, inner total %v", lt["outer"].self, lt["outer"].total, lt["inner"].total)
	}
	var none *spanRecorder // untraced runs use a nil recorder
	none.end(none.begin(none.id("x")))
}

// TestQuartiles pins the helpers to Python's statistics.median and
// statistics.quantiles(xs, n=4), which the acceptance rule is stated in.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the harness and to the limits of
// the contract it is written to.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(ws))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range ws {
		d := spec.Workloads[i]
		if d.Name != w.name || d.Why != w.why || len(d.Why) > 200 || strings.Contains(d.Why, "\n") || !name.MatchString(d.Name) {
			t.Errorf("workload %d: declared %+v, defined %s: %s", i, d, w.name, w.why)
		}
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range spec.EndToEnd {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] ||
			(m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		seen[m.Name] = true
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is not declared")
	}
	if len(spec.PerLayer) != len(perLayerUnits) || len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics declared, %d defined", len(spec.PerLayer), len(perLayerUnits))
	}
	for _, m := range spec.PerLayer {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] ||
			(m.Better != "lower" && m.Better != "higher") || perLayerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer metric %+v breaks the contract or the harness (unit %q)", m, perLayerUnits[m.Name])
		}
		seen[m.Name] = true
	}
}

// suiteOf builds a suite file with one workload whose runs report the given
// host_ns_per_req values (and a constant setup_s), seeds 1..n.
func suiteOf(t *testing.T, path string, digest string, host ...float64) {
	t.Helper()
	wl := suiteWorkload{Name: "w", Summary: map[string]summary{}}
	for i, v := range host {
		wl.Runs = append(wl.Runs, suiteRun{Seed: int64(i + 1), Digest: digest,
			Metrics: map[string]float64{"host_ns_per_req": v, "setup_s": 1}})
	}
	q1, q2, q3 := quartiles(host)
	wl.Summary["host_ns_per_req"] = summary{Unit: "ns", Median: q2, Q1: q1, Q3: q3, N: len(host)}
	wl.Summary["setup_s"] = summary{Unit: "s", Median: 1, Q1: 1, Q3: 1, N: len(host)}
	data, err := json.Marshal(suiteFile{Manifest: manifest{Rounds: len(host)}, Workloads: []suiteWorkload{wl}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompare: a row is ok inside its bound, a regression outside it (and
// the comparison fails), unresolved when the run-to-run spread exceeds the
// bound — unless every run of B beats every run of A — and a changed
// sim_digest is called out.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"host_ns_per_req","unit":"ns","better":"lower","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	a := filepath.Join(dir, "a.json")
	suiteOf(t, a, "d1", 100, 101, 102, 103, 104)
	for _, c := range []struct {
		name    string
		digest  string
		host    []float64
		fails   bool
		verdict string
		note    string
	}{
		{"same", "d1", []float64{101, 102, 103, 104, 105}, false, "| ok |", "identical on all 5 common seeds"},
		{"slower", "d1", []float64{120, 121, 122, 123, 124}, true, "| REGRESSION |", "1 regressions"},
		{"noisy", "d1", []float64{80, 100, 120, 140, 160}, false, "| unresolved (spread", "1 unresolved"},
		{"noisy but always faster", "d2", []float64{40, 50, 60, 70, 80}, false, "| ok |", "DIFFERS on 5 of 5 common seeds"},
	} {
		b := filepath.Join(dir, "b.json")
		suiteOf(t, b, c.digest, c.host...)
		var out bytes.Buffer
		err := runCompare(&out, spec, a, b)
		if (err != nil) != c.fails || (err != nil && !errors.Is(err, errRegression)) {
			t.Errorf("%s: err = %v, want failure %v", c.name, err, c.fails)
		}
		table := out.String()
		row := table[strings.Index(table, "| w | host_ns_per_req"):]
		row = row[:strings.Index(row, "\n")]
		if !strings.Contains(row, c.verdict) || !strings.Contains(table, c.note) {
			t.Errorf("%s: row %q, want verdict %q and note %q in\n%s", c.name, row, c.verdict, c.note, table)
		}
	}
}

// TestInputSeeds: a run's inputs are made from its seed alone, cycle through
// subSeeds distinct values, and differ between seeds.
func TestInputSeeds(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		for i := 0; i < 2*subSeeds; i++ {
			in := inputSeed(seed, i, subSeeds)
			if in != inputSeed(seed, i%subSeeds, subSeeds) {
				t.Errorf("seed %d repeat %d: input %d is not a function of the repeat's slot", seed, i, in)
			}
			if i < subSeeds && seen[in] {
				t.Errorf("seed %d repeat %d: input seed %d reused", seed, i, in)
			}
			seen[in] = true
		}
	}
}
