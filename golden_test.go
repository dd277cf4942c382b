package jitgc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenOps keeps the full serial sweep in the tens of seconds while still
// driving every device through preconditioning and real GC pressure. The
// committed golden files are rendered at exactly these options; regenerate
// with `go test -run TestExperimentGoldens -update .` after an intentional
// behaviour change.
func goldenOptions() Options {
	return Options{Seed: 1, Ops: 4000, Workers: 1}
}

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

// TestExperimentGoldens locks down the rendering of every paperbench
// experiment: any change to a simulator, policy, workload generator, or
// table formatter that shifts a single cell shows up as a golden diff.
func TestExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep runs every experiment serially; skipped in -short")
	}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			if raceEnabled && e.ID == "lifetime" {
				t.Skip("wear-out replay takes minutes under the race detector")
			}
			if e.ID == "scale" {
				t.Skip("scale grid reports wall-clock ns/write, which cannot be golden; covered by TestScaleExperimentSmallPreset")
			}
			tables, err := e.Run(goldenOptions())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got := renderExperiment(e, tables)
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

// TestArrayExpWorkersDeterministic asserts the array experiment renders
// byte-identically whether its grid cells run serially or fan out over
// eight workers: the coordination state must live entirely inside each
// cell's array, never shared across goroutines.
func TestArrayExpWorkersDeterministic(t *testing.T) {
	e, err := ExperimentByID("array")
	if err != nil {
		t.Fatal(err)
	}
	ops := 1000
	if testing.Short() {
		ops = 250
	}
	render := func(workers int) string {
		tables, err := e.Run(Options{Seed: 1, Ops: ops, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return renderExperiment(e, tables)
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("array experiment differs between Workers=1 and Workers=8:\n%s",
			diffLines(serial, parallel))
	}
}

// TestArrayScaleExpWorkersDeterministic does the same for the wide-array
// study: its cells carry rebuild state on top of coordination, all of
// which must stay confined to the cell's own array.
func TestArrayScaleExpWorkersDeterministic(t *testing.T) {
	e, err := ExperimentByID("arrayscale")
	if err != nil {
		t.Fatal(err)
	}
	ops := 1000
	if testing.Short() {
		ops = 250
	}
	render := func(workers int) string {
		tables, err := e.Run(Options{Seed: 1, Ops: ops, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return renderExperiment(e, tables)
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("arrayscale experiment differs between Workers=1 and Workers=8:\n%s",
			diffLines(serial, parallel))
	}
}

// TestMultiTenantExpDeterministic asserts the multi-tenant experiment
// renders byte-identically across worker counts and across repeated runs at
// a fixed seed. The engine superposes thousands of seeded arrival and
// workload streams over one stepped simulator; any hidden shared state — a
// global RNG, map-iteration ordering, cross-cell aliasing — shows up here
// as a one-cell diff.
func TestMultiTenantExpDeterministic(t *testing.T) {
	e, err := ExperimentByID("multitenant")
	if err != nil {
		t.Fatal(err)
	}
	ops := 2000
	if testing.Short() {
		ops = 500
	}
	render := func(workers int) string {
		tables, err := e.Run(Options{Seed: 1, Ops: ops, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return renderExperiment(e, tables)
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("multitenant experiment differs between Workers=1 and Workers=8:\n%s",
			diffLines(serial, parallel))
	}
	if again := render(8); again != parallel {
		t.Errorf("multitenant experiment differs between repeated Workers=8 runs:\n%s",
			diffLines(parallel, again))
	}
}

// TestTrimExpWorkersDeterministic asserts the trim experiment renders
// byte-identically across worker counts and across repeated runs at a fixed
// seed. Its grid mixes two kinds of cells — direct-driven steady-state
// sweeps and full simulator runs over the TRIM-rich host profiles — and
// both must derive every random choice from the cell's own seeded RNG.
func TestTrimExpWorkersDeterministic(t *testing.T) {
	e, err := ExperimentByID("trim")
	if err != nil {
		t.Fatal(err)
	}
	ops := 2000
	if testing.Short() {
		ops = 500
	}
	render := func(workers int) string {
		tables, err := e.Run(Options{Seed: 1, Ops: ops, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return renderExperiment(e, tables)
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("trim experiment differs between Workers=1 and Workers=8:\n%s",
			diffLines(serial, parallel))
	}
	if again := render(8); again != parallel {
		t.Errorf("trim experiment differs between repeated Workers=8 runs:\n%s",
			diffLines(parallel, again))
	}
}
