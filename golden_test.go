package jitgc

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"jitgc/internal/telemetry"
	"jitgc/internal/telemetry/binlog"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden and testdata/settings.txt")

// goldenOptions keeps the extension experiments' serial sweep in seconds
// while still driving every device through preconditioning and GC. The
// committed golden files are rendered at exactly these options, evaluation's
// (the paper's tables and its ablations) at goldenOptionsFor's; regenerate
// with `go test -run TestExperimentGoldens -update .` after an intentional
// behaviour change.
func goldenOptions() Options {
	return Options{Seed: 1, Ops: 4000, Workers: 1}
}

// evaluationOps is the request count evaluation's golden renders at. At
// 4000 requests GC barely runs and its tables read 1.000 or 0.0% almost
// everywhere; at 100000 they carry the paper's shape, so a change to a
// policy shows up as a golden diff.
const evaluationOps = 100_000

// goldenOptionsFor returns the options experiment id's golden renders at.
// Under -race evaluation stays at goldenOptions' 4000 requests: its runs
// there check determinism and the shared tracer, not the golden.
func goldenOptionsFor(id string) Options {
	opt := goldenOptions()
	if id == "evaluation" && !raceEnabled {
		opt.Ops = evaluationOps
	}
	return opt
}

// evaluationUntraced is why evaluation's runs carry no event stream to
// check: they render at evaluationOps untraced, and the event types a traced
// 4000-request evaluation run emits (erase, flush_decision, gc_start,
// gc_end, request, snapshot) are all emitted by the other traced
// experiments too.
const evaluationUntraced = "evaluation runs untraced at golden scale; its event types are covered by the other experiments' streams"

// shortOps is the request count the experiments run at under -short.
const shortOps = 500

// renderExperiment formats an experiment the way cmd/paperbench prints it,
// minus the wall-clock timing in the header.
func renderExperiment(e Experiment, tables []Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s — %s\n\n", e.ID, e.Title)
	for _, t := range tables {
		sb.WriteString(t.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// experimentRun is what one experiment's two runs leave behind: a serial
// run at golden options (shortOps under -short) and the same run over
// eight workers. Every experiment runs this way once per test binary, and
// the tests in this file each check their part of the same two runs.
//
// Outside -race and -short the serial run traces into an event digest and a
// live binlog at once (telemetry.Tee), and the live binlog must decode to
// the events the digest folded; evaluation's runs, at evaluationOps, are
// untraced (evaluationUntraced). Under -race the serial run is
// untraced (the binlog package tests cover the codec under race), and the
// Workers=8 run traces into one BinSink shared by all its cells, so the
// race detector sees a tracer shared across grid workers. lifetime, which
// pins Ops to 30000 and replays to wear-out, makes the untraced serial run
// only.
type experimentRun struct {
	serial, parallel       []Table
	serialErr, parallelErr error
	events                 int64 // events the traced serial run emitted
	streamErr              error // the serial run's live binlog does not decode to the events it emitted
	sharedErr              error // the Workers=8 run's shared BinSink failed to decode to Count() events
}

// experimentRuns makes each experiment's runs for the first test that asks.
var experimentRuns = func() map[string]func() *experimentRun {
	runs := make(map[string]func() *experimentRun)
	for _, e := range Experiments() {
		runs[e.ID] = sync.OnceValue(func() *experimentRun { return runTwice(e) })
	}
	return runs
}()

// runTwice makes e's serial and Workers=8 runs.
func runTwice(e Experiment) *experimentRun {
	r := &experimentRun{}
	opt := goldenOptionsFor(e.ID)
	if testing.Short() {
		opt.Ops = shortOps
	}
	if raceEnabled || testing.Short() || e.ID == "lifetime" || e.ID == "evaluation" {
		r.serial, r.serialErr = e.Run(opt)
	} else {
		r.runTeed(e, opt)
	}
	if e.ID == "lifetime" {
		return r
	}

	var bin bytes.Buffer
	sink := binlog.NewBinSink(&bin, binlog.Options{})
	opt.Workers = 8
	if raceEnabled { // left untraced otherwise: the serial run covers the stream
		opt.Tracer = telemetry.New(sink)
	}
	r.parallel, r.parallelErr = e.Run(opt)
	if err := sink.Close(); err != nil {
		r.sharedErr = fmt.Errorf("close shared sink: %w", err)
	} else if n, err := countEvents(&bin); err != nil {
		r.sharedErr = err
	} else if n != sink.Count() {
		r.sharedErr = fmt.Errorf("shared BinSink decodes to %d events, Count() = %d", n, sink.Count())
	}
	return r
}

// runTeed makes the serial run traced through a tee of an event digest and
// a live BinSink (requests through its EmitRequest fast path), and checks
// that the live binlog decodes to exactly the events the tracer emitted.
func (r *experimentRun) runTeed(e Experiment, opt Options) {
	var live bytes.Buffer
	emitted := newEventDigest()
	tee := telemetry.Tee(emitted, binlog.NewBinSink(&live, binlog.Options{}))
	opt.Tracer = telemetry.New(tee)
	if r.serial, r.serialErr = e.Run(opt); r.serialErr != nil {
		return
	}
	if err := tee.Close(); err != nil {
		r.streamErr = fmt.Errorf("close sink: %w", err)
		return
	}
	r.events = emitted.n
	r.streamErr = matchBinlog(&live, emitted)
}

// countEvents decodes a binlog stream, returning how many events it holds.
func countEvents(r io.Reader) (int64, error) {
	rd, err := binlog.NewReader(r)
	if err != nil {
		return 0, fmt.Errorf("open binlog: %w", err)
	}
	var n int64
	for {
		if _, err := rd.Next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, fmt.Errorf("decode event %d: %w", n, err)
		}
		n++
	}
}

// scaleHasNoGolden is why the scale experiment is left out of the golden
// sweep and has no file under testdata/golden.
const scaleHasNoGolden = "scale grid reports wall-clock ns/write, which cannot be golden; covered by TestScaleExperimentSmallPreset"

// eachExperiment calls check with every experiment's runs, one parallel
// subtest each. scale is always left out: its ns/write column is
// wall-clock, so two runs never render alike and it has no golden (its
// deterministic columns are pinned by TestScaleExperimentSmallPreset).
// skip names why any other experiment is left out, or returns "".
func eachExperiment(t *testing.T, skip func(id string) string, check func(t *testing.T, e Experiment, r *experimentRun)) {
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "scale" {
				t.Skip(scaleHasNoGolden)
			}
			if why := skip(e.ID); why != "" {
				t.Skip(why)
			}
			t.Parallel()
			check(t, e, experimentRuns[e.ID]())
		})
	}
}

// TestExperimentGoldens locks down the rendering of every paperbench
// experiment: any change to a simulator, policy, workload generator, or
// table formatter that shifts a single cell shows up as a golden diff.
func TestExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep runs every experiment at golden scale; skipped in -short")
	}
	eachExperiment(t, func(id string) string {
		switch {
		case raceEnabled && id == "lifetime":
			return "wear-out replay takes minutes under the race detector"
		case raceEnabled && id == "evaluation":
			return "evaluation renders its golden at 100000 requests; under the race detector it runs at 4000 for the determinism check only"
		}
		return ""
	}, func(t *testing.T, e Experiment, r *experimentRun) {
		if r.serialErr != nil {
			t.Fatalf("run: %v", r.serialErr)
		}
		got := renderExperiment(e, r.serial)
		path := filepath.Join("testdata", "golden", e.ID+".txt")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (generate with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("output differs from %s:\n%s", path, diffLines(string(want), got))
		}
	})
}

// TestGoldenFilesMatchExperiments keeps testdata/golden in step with the
// registry: every golden file names an experiment, so a deleted
// experiment's file cannot linger unchecked, and every experiment but
// scale has one.
func TestGoldenFilesMatchExperiments(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, f := range files {
		have[strings.TrimSuffix(filepath.Base(f), ".txt")] = true
	}
	for _, id := range ExperimentIDs() {
		switch {
		case id == "scale" && have[id]:
			t.Errorf("%s has a golden file, but %s", id, scaleHasNoGolden)
		case id != "scale" && !have[id]:
			t.Errorf("experiment %s has no golden file (generate with -update)", id)
		}
		delete(have, id)
	}
	for id := range have {
		t.Errorf("testdata/golden/%s.txt names no experiment", id)
	}
}

// TestExperimentEventStreamsRoundTrip locks down the event streams of the
// golden runs: every event type and field combination the experiments
// actually emit must come back out of the live binlog the same run wrote
// (requests through BinSink.EmitRequest) — same count, same SHA-256 over
// every field. lifetime, whose nine wear-out cells would dominate the
// whole suite, is covered by TestLifetimeEventStreamRoundTrip instead;
// evaluation runs untraced (evaluationUntraced).
func TestExperimentEventStreamsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("the golden runs are traced only at golden scale; skipped in -short")
	}
	if raceEnabled {
		t.Skip("single-goroutine fidelity sweep; the binlog package tests already run under race")
	}
	eachExperiment(t, func(id string) string {
		switch id {
		case "lifetime":
			return "covered by TestLifetimeEventStreamRoundTrip (one wear-out cell instead of nine)"
		case "evaluation":
			return evaluationUntraced
		}
		return ""
	}, func(t *testing.T, e Experiment, r *experimentRun) {
		if r.serialErr != nil {
			t.Fatalf("run: %v", r.serialErr)
		}
		if r.events == 0 {
			t.Skipf("%s emits no events at this scale", e.ID)
		}
		if r.streamErr != nil {
			t.Fatal(r.streamErr)
		}
	})
}

// TestExperimentsRunAtReducedScale checks that every registered experiment
// (the paper grid, its worked examples and the extensions) returns tables
// with rows, on both of its runs, so the full harness is exercised in CI.
func TestExperimentsRunAtReducedScale(t *testing.T) {
	eachExperiment(t, func(id string) string {
		if id == "lifetime" {
			return "wear-out replay; covered by TestExperimentGoldens/lifetime and TestRunUntilWearOut"
		}
		return ""
	}, func(t *testing.T, e Experiment, r *experimentRun) {
		for _, run := range []struct {
			workers int
			tables  []Table
			err     error
		}{{1, r.serial, r.serialErr}, {8, r.parallel, r.parallelErr}} {
			if run.err != nil {
				t.Fatalf("workers=%d: %v", run.workers, run.err)
			}
			if len(run.tables) == 0 {
				t.Fatalf("workers=%d: no tables", run.workers)
			}
			for _, tb := range run.tables {
				if len(tb.Rows) == 0 || tb.String() == "" {
					t.Errorf("workers=%d: empty table %q", run.workers, tb.Title)
				}
			}
		}
	})
}

// TestGridDeterministicAcrossWorkerCounts is the parallel runner's
// load-bearing guarantee: the full experiment grid renders byte-identical
// reports for the same seed whether cells run serially (Workers=1) or fan
// out (Workers=8), because every cell writes a pre-indexed slot. Under
// -race the Workers=8 run also shares one BinSink across all its cells,
// whose stream must decode to exactly Count() events. lifetime is
// excluded only for wall-clock; it assembles its grid with the same
// gridCells helper the covered experiments exercise.
//
// Some subtests guard state beyond the grid runner. array's coordination
// state must live entirely inside each cell's array, and arrayscale's
// rebuild state on top of it. multitenant superposes thousands of seeded
// arrival and workload streams over one stepped simulator, so a global
// RNG, map-iteration order or cross-cell aliasing shows up as a one-cell
// diff. trim mixes direct-driven steady-state sweeps with full simulator
// runs over TRIM-rich host profiles, and both must draw every random
// choice from the cell's own seeded RNG.
func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	eachExperiment(t, func(id string) string {
		if id == "lifetime" {
			return "wear-out replay runs serially only"
		}
		return ""
	}, checkWorkersDeterministic)
}

// checkWorkersDeterministic fails unless e's Workers=8 run rendered the
// bytes of its serial run, and any tracer it shared decoded whole.
func checkWorkersDeterministic(t *testing.T, e Experiment, r *experimentRun) {
	t.Helper()
	if r.serialErr != nil {
		t.Fatalf("workers=1: %v", r.serialErr)
	}
	if r.parallelErr != nil {
		t.Fatalf("workers=8: %v", r.parallelErr)
	}
	serial, parallel := renderExperiment(e, r.serial), renderExperiment(e, r.parallel)
	if parallel != serial {
		t.Errorf("%s experiment differs between Workers=1 and Workers=8:\n%s", e.ID, diffLines(serial, parallel))
	}
	if r.sharedErr != nil {
		t.Error(r.sharedErr)
	}
}

// diffLines reports the first few differing lines between two renderings —
// enough to see which cells moved without dumping whole tables twice.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		fmt.Fprintf(&sb, "line %d:\n  want: %s\n  got:  %s\n", i+1, wl, gl)
		if shown++; shown >= 8 {
			sb.WriteString("  …\n")
			break
		}
	}
	if shown == 0 {
		sb.WriteString("(renderings differ only in length)\n")
	}
	return sb.String()
}
