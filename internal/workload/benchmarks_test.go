package workload

import (
	"testing"

	"jitgc/internal/trace"
)

// genFor produces a stream for structural checks.
func genFor(t *testing.T, g Generator) []trace.Request {
	t.Helper()
	reqs, err := g.Generate(testParams())
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	return reqs
}

func TestTPCCLogIsSequentialAndDirect(t *testing.T) {
	reqs := genFor(t, NewTPCC())
	ws := testParams().WorkingSetPages
	logSize := ws * 4 / 100

	// Log-region writes must be direct and advance sequentially (with
	// wraparound).
	var prevEnd int64 = -1
	logWrites := 0
	for _, r := range reqs {
		if !r.IsWrite() || r.LPN >= logSize {
			continue
		}
		logWrites++
		if r.Kind != trace.DirectWrite {
			t.Fatalf("log write %+v not direct", r)
		}
		if prevEnd >= 0 && r.LPN != prevEnd%logSize {
			t.Fatalf("log write at %d, want cursor %d", r.LPN, prevEnd%logSize)
		}
		prevEnd = r.LPN + int64(r.Pages)
	}
	if logWrites == 0 {
		t.Fatal("no redo-log writes")
	}
}

func TestBonniePhasesAlternate(t *testing.T) {
	reqs := genFor(t, NewBonnie())
	// The four-phase cycle gives long all-write and all-read stretches;
	// verify both stretch kinds exist with runs of ≥ 100 requests.
	run, best := 0, map[bool]int{}
	prevWrite := reqs[0].IsWrite()
	for _, r := range reqs {
		if r.IsWrite() == prevWrite {
			run++
		} else {
			if run > best[prevWrite] {
				best[prevWrite] = run
			}
			run = 1
			prevWrite = r.IsWrite()
		}
	}
	if best[true] < 100 || best[false] < 100 {
		t.Errorf("phase run lengths write=%d read=%d, want long phases", best[true], best[false])
	}
}

func TestBonnieWritesAreSequentialWithinPhases(t *testing.T) {
	reqs := genFor(t, NewBonnie())
	seq, writes := 0, 0
	var prevEnd int64 = -1
	for _, r := range reqs {
		if !r.IsWrite() {
			prevEnd = -1
			continue
		}
		writes++
		if prevEnd >= 0 && r.LPN == prevEnd {
			seq++
		}
		prevEnd = r.End()
	}
	if writes == 0 || float64(seq)/float64(writes) < 0.8 {
		t.Errorf("sequential continuations %d/%d, want ≥ 80%%", seq, writes)
	}
}

func TestPostmarkEmitsTrims(t *testing.T) {
	reqs := genFor(t, NewPostmark())
	st := trace.Summarize(reqs)
	if st.TrimmedPages == 0 {
		t.Fatal("Postmark deletes no longer TRIM")
	}
	// Every trim is followed (eventually) by reuse of its slot — the churn
	// signature. Just check trims target previously written space.
	written := map[int64]bool{}
	for _, r := range reqs {
		switch {
		case r.IsWrite():
			for i := int64(0); i < int64(r.Pages); i++ {
				written[r.LPN+i] = true
			}
		case r.Kind == trace.Trim:
			if !written[r.LPN] {
				t.Fatalf("trim of never-written lpn %d", r.LPN)
			}
		}
	}
}

func TestFilebenchWholeFileRewrites(t *testing.T) {
	reqs := genFor(t, NewFilebench())
	// Whole-file writes reuse fixed extents: the same (LPN, Pages) write
	// must recur.
	seen := map[[2]int64]int{}
	for _, r := range reqs {
		if r.Kind == trace.BufferedWrite && r.Pages >= 8 {
			seen[[2]int64{r.LPN, int64(r.Pages)}]++
		}
	}
	recurring := 0
	for _, n := range seen {
		if n >= 3 {
			recurring++
		}
	}
	if recurring < 5 {
		t.Errorf("only %d extents rewritten ≥ 3 times — no file-slot reuse", recurring)
	}
}

func TestTiobenchStripesPerThread(t *testing.T) {
	reqs := genFor(t, NewTiobench())
	ws := testParams().WorkingSetPages
	stripe := ws / 4
	// All four stripes must receive writes.
	hits := make([]int, 4)
	for _, r := range reqs {
		if r.IsWrite() {
			idx := r.LPN / stripe
			if idx > 3 {
				idx = 3
			}
			hits[idx]++
		}
	}
	for i, h := range hits {
		if h == 0 {
			t.Errorf("stripe %d received no writes", i)
		}
	}
}

func TestYCSBLogRegionIsDirect(t *testing.T) {
	reqs := genFor(t, NewYCSB())
	ws := testParams().WorkingSetPages
	logBase := ws * 98 / 100
	direct, inLog := 0, 0
	for _, r := range reqs {
		if r.Kind == trace.DirectWrite {
			direct++
			if r.LPN >= logBase {
				inLog++
			}
		}
	}
	if direct == 0 {
		t.Fatal("no direct writes")
	}
	if float64(inLog)/float64(direct) < 0.9 {
		t.Errorf("only %d/%d direct writes in the commit-log region", inLog, direct)
	}
}
