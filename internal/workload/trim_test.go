package workload

import (
	"math"
	"testing"

	"jitgc/internal/trace"
)

func trimParams() Params {
	return Params{Seed: 1, Ops: 40000, WorkingSetPages: 16384}
}

func TestProfileLookup(t *testing.T) {
	g, err := Profile("churn", 0.25)
	if err != nil || g.Name() != "FileChurn" {
		t.Errorf("Profile(churn) = %v, %v", g, err)
	}
	g, err = Profile("log", 0.25)
	if err != nil || g.Name() != "LogStructured" {
		t.Errorf("Profile(log) = %v, %v", g, err)
	}
	if _, err := Profile("ext4", 0.25); err == nil {
		t.Error("unknown host profile accepted")
	}
}

func TestTrimProfilesProduceValidBoundedStreams(t *testing.T) {
	p := trimParams()
	for _, name := range []string{"churn", "log"} {
		g, err := Profile(name, 0.30)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := g.Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := checkStream(t, g.Name(), reqs, p)
		if st.WrittenPages == 0 {
			t.Errorf("%s: no writes", name)
		}
		if st.ReadPages == 0 {
			t.Errorf("%s: no reads", name)
		}
		if st.TrimmedPages == 0 {
			t.Errorf("%s: no trims at rate 0.30", name)
		}
	}
}

// replayPageStates walks a stream tracking the logical state of every page:
// live (written, not since discarded) or trimmed. It fails the test on any
// TRIM of a never-written page.
func replayPageStates(t *testing.T, name string, reqs []trace.Request, ws int64) (live, trimmed map[int64]bool) {
	t.Helper()
	live = make(map[int64]bool)
	trimmed = make(map[int64]bool)
	for i, r := range reqs {
		switch r.Kind {
		case trace.BufferedWrite, trace.DirectWrite:
			for lpn := r.LPN; lpn < r.End(); lpn++ {
				live[lpn] = true
				delete(trimmed, lpn)
			}
		case trace.Trim:
			for lpn := r.LPN; lpn < r.End(); lpn++ {
				if !live[lpn] {
					t.Fatalf("%s: request %d trims never-written page %d", name, i, lpn)
				}
				delete(live, lpn)
				trimmed[lpn] = true
			}
		}
	}
	_ = ws
	return live, trimmed
}

// TestFileChurnTrimmedFraction is the statistical moment check from the
// issue: the steady-state trimmed share of the touched working set must sit
// within ±3 points of the configured churn rate — the quantity Frankie et
// al.'s effective-OP model takes as its q input.
func TestFileChurnTrimmedFraction(t *testing.T) {
	p := trimParams()
	for _, q := range []float64{0.10, 0.25, 0.40} {
		g := NewFileChurn(q)
		reqs, err := g.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		live, trimmed := replayPageStates(t, g.Name(), reqs, p.WorkingSetPages)
		touched := len(live) + len(trimmed)
		if touched == 0 {
			t.Fatalf("q=%v: stream touched no pages", q)
		}
		got := float64(len(trimmed)) / float64(touched)
		if math.Abs(got-q) > 0.03 {
			t.Errorf("q=%v: steady-state trimmed fraction = %.4f (|Δ| > 0.03)", q, got)
		}
	}
}

// TestFileChurnZeroRateNeverTrims pins the no-discard degenerate case: with
// ChurnRate = 0 unlinked extents are reused silently and the device never
// sees a TRIM.
func TestFileChurnZeroRateNeverTrims(t *testing.T) {
	p := trimParams()
	reqs, err := NewFileChurn(0).Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if r.Kind == trace.Trim {
			t.Fatalf("request %d is a TRIM at churn rate 0", i)
		}
	}
}

// TestLogStructuredWholeSegmentTrims is the append-only structural check
// from the issue: every TRIM covers exactly one segment-aligned whole
// segment, every trimmed segment was fully written, and no live page is
// ever overwritten in place.
func TestLogStructuredWholeSegmentTrims(t *testing.T) {
	p := trimParams()
	g := NewLogStructured(0.30)
	reqs, err := g.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	seg := int64(logSegmentPages)
	state := make(map[int64]int) // 0 unwritten/trimmed, 1 live
	sawTrim := false
	for i, r := range reqs {
		switch r.Kind {
		case trace.BufferedWrite, trace.DirectWrite:
			for lpn := r.LPN; lpn < r.End(); lpn++ {
				if state[lpn] == 1 {
					t.Fatalf("request %d overwrites live page %d in place", i, lpn)
				}
				state[lpn] = 1
			}
		case trace.Trim:
			sawTrim = true
			if r.LPN%seg != 0 || int64(r.Pages) != seg {
				t.Fatalf("request %d is a partial TRIM: lpn %d, %d pages (segment = %d)",
					i, r.LPN, r.Pages, seg)
			}
			for lpn := r.LPN; lpn < r.End(); lpn++ {
				if state[lpn] != 1 {
					t.Fatalf("request %d trims segment %d with unwritten page %d",
						i, r.LPN/seg, lpn)
				}
				state[lpn] = 0
			}
		}
	}
	if !sawTrim {
		t.Fatal("no whole-segment TRIMs emitted")
	}
}

// TestLogStructuredFreeShare checks the cleaner holds the trimmed-segment
// share at the configured free target once the log has wrapped.
func TestLogStructuredFreeShare(t *testing.T) {
	p := trimParams()
	for _, q := range []float64{0.15, 0.30, 0.45} {
		g := NewLogStructured(q)
		reqs, err := g.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		_, trimmed := replayPageStates(t, g.Name(), reqs, p.WorkingSetPages)
		segments := p.WorkingSetPages / logSegmentPages
		trimmedSegs := int64(len(trimmed)) / logSegmentPages
		got := float64(trimmedSegs) / float64(segments)
		if math.Abs(got-q) > 0.05 {
			t.Errorf("q=%v: steady-state trimmed segment share = %.4f (|Δ| > 0.05)", q, got)
		}
	}
}

func TestTrimProfilesDeterministic(t *testing.T) {
	p := trimParams()
	p2 := p
	p2.Seed = 2
	for _, name := range []string{"churn", "log"} {
		g, err := Profile(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		a, err := g.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs across identical runs", name, i)
			}
		}
		c, _ := g.Generate(p2)
		same := true
		for i := range a {
			if i < len(c) && a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seed change produced identical stream", name)
		}
	}
}

func TestTrimProfilesRejectBadParams(t *testing.T) {
	for _, name := range []string{"churn", "log"} {
		g, err := Profile(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Generate(Params{}); err == nil {
			t.Errorf("%s accepted zero params", name)
		}
	}
	p := trimParams()
	for _, rate := range []float64{1.5, -0.1, math.NaN()} {
		if _, err := NewFileChurn(rate).Generate(p); err == nil {
			t.Errorf("churn rate %v accepted", rate)
		}
		if _, err := NewLogStructured(rate).Generate(p); err == nil {
			t.Errorf("free-segment target %v accepted", rate)
		}
	}
	if _, err := NewFileChurn(0.2).Generate(Params{Seed: 1, Ops: 100, WorkingSetPages: 100}); err == nil {
		t.Error("tiny working set accepted by FileChurn")
	}
}
