package workload

import (
	"errors"
	"math"
	randv2 "math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/trace"
)

func testParams() Params {
	return Params{Seed: 1, Ops: 20000, WorkingSetPages: 20000}
}

func TestParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (Params{Ops: 0, WorkingSetPages: 10}).Validate(); err == nil {
		t.Error("zero ops accepted")
	}
	if err := (Params{Ops: 10, WorkingSetPages: 0}).Validate(); err == nil {
		t.Error("zero working set accepted")
	}
	// An extent may span the whole working set, so the working set is
	// bounded by what Request.Pages holds.
	if err := (Params{Ops: 10, WorkingSetPages: math.MaxInt32}).Validate(); err != nil {
		t.Errorf("working set of math.MaxInt32 pages rejected: %v", err)
	}
	if err := (Params{Ops: 10, WorkingSetPages: math.MaxInt32 + 1}).Validate(); err == nil {
		t.Error("working set past math.MaxInt32 pages accepted")
	}
}

func TestAllReturnsSixPaperBenchmarks(t *testing.T) {
	gens := All()
	if len(gens) != 6 {
		t.Fatalf("benchmarks = %d, want 6", len(gens))
	}
	want := []string{"YCSB", "Postmark", "Filebench", "Bonnie++", "Tiobench", "TPC-C"}
	for i, g := range gens {
		if g.Name() != want[i] {
			t.Errorf("benchmark %d = %q, want %q (paper order)", i, g.Name(), want[i])
		}
	}
}

func TestByName(t *testing.T) {
	g, err := ByName("TPC-C")
	if err != nil || g.Name() != "TPC-C" {
		t.Errorf("ByName = %v, %v", g, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// checkStream asserts universal stream invariants and returns the summary.
func checkStream(t *testing.T, name string, reqs []trace.Request, p Params) trace.Stats {
	t.Helper()
	if len(reqs) != p.Ops {
		t.Errorf("%s: %d requests, want %d", name, len(reqs), p.Ops)
	}
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			t.Fatalf("%s: request %d invalid: %v", name, i, err)
		}
		if r.End() > p.WorkingSetPages {
			t.Fatalf("%s: request %d beyond working set: lpn %d + %d pages", name, i, r.LPN, r.Pages)
		}
	}
	return trace.Summarize(reqs)
}

func TestGeneratorsProduceValidBoundedStreams(t *testing.T) {
	p := testParams()
	for _, g := range All() {
		reqs, err := g.Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		st := checkStream(t, g.Name(), reqs, p)
		if st.WrittenPages == 0 {
			t.Errorf("%s: no writes", g.Name())
		}
		if st.ReadPages == 0 && g.Name() != "TPC-C" {
			// every benchmark mixes reads (TPC-C included, but keep slack)
			t.Errorf("%s: no reads", g.Name())
		}
	}
}

// TestGeneratorsFillExactlyTheSliceTheySized: a generator that emits several
// requests per loop turn (a TRIM plus its journal write) used to run past
// Ops on its last turn, which doubled the request slice — a full copy, for
// requests that were then cut off.
func TestGeneratorsFillExactlyTheSliceTheySized(t *testing.T) {
	gens := append(All(), NewFileChurn(0.25), NewLogStructured(0.25))
	for _, g := range gens {
		for seed := int64(1); seed <= 5; seed++ {
			p := Params{Seed: seed, Ops: 3001, WorkingSetPages: 4096}
			reqs, err := g.Generate(p)
			if err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			if len(reqs) != p.Ops || cap(reqs) != p.Ops {
				t.Errorf("%s seed %d: len %d, cap %d, want both %d", g.Name(), seed, len(reqs), cap(reqs), p.Ops)
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	p := testParams()
	for _, g := range All() {
		a, err := g.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ", g.Name())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs: %+v vs %+v", g.Name(), i, a[i], b[i])
			}
		}
	}
}

func TestGeneratorsSeedSensitivity(t *testing.T) {
	p := testParams()
	p2 := p
	p2.Seed = 2
	for _, g := range All() {
		a, _ := g.Generate(p)
		b, _ := g.Generate(p2)
		same := true
		for i := range a {
			if i < len(b) && a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seed change produced identical stream", g.Name())
		}
	}
}

// TestParamsSourceOverridesSeed: with a Source set, Seed no longer matters —
// two runs from the same source state under different seeds give the same
// stream — while a source in another state gives another stream.
func TestParamsSourceOverridesSeed(t *testing.T) {
	gens := append(All(), NewFileChurn(0.25), NewLogStructured(0.25))
	for _, g := range gens {
		gen := func(seed int64, src randv2.Source) []trace.Request {
			reqs, err := g.Generate(Params{Seed: seed, Source: src, Ops: 3000, WorkingSetPages: 4096})
			if err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			return reqs
		}
		a := gen(1, randv2.NewPCG(5, 6))
		if b := gen(2, randv2.NewPCG(5, 6)); !slices.Equal(a, b) {
			t.Errorf("%s: same source state, different seeds gave different streams", g.Name())
		}
		if c := gen(1, randv2.NewPCG(5, 7)); slices.Equal(a, c) {
			t.Errorf("%s: different source states gave the same stream", g.Name())
		}
		if d := gen(1, nil); slices.Equal(a, d) {
			t.Errorf("%s: the source stream equals seed 1's math/rand stream", g.Name())
		}
	}
}

func TestGeneratorsRejectBadParams(t *testing.T) {
	for _, g := range All() {
		if _, err := g.Generate(Params{}); err == nil {
			t.Errorf("%s accepted zero params", g.Name())
		}
	}
}

// TestSmallWorkingSetsReturnError: below its MinWorkingSetPages every
// generator returns ErrWorkingSetTooSmall; Tiobench used to panic at fewer
// pages than threads (a zero-page stripe) and TPC-C at 16 pages or fewer (no
// data region beside the redo log). At the minimum, every generator
// generates.
func TestSmallWorkingSetsReturnError(t *testing.T) {
	for _, g := range allGenerators() {
		need := g.MinWorkingSetPages()
		for ws := int64(1); ws < need; ws++ {
			_, err := g.Generate(Params{Seed: 1, Ops: 100, WorkingSetPages: ws})
			if !errors.Is(err, ErrWorkingSetTooSmall) {
				t.Fatalf("%s at %d pages: got %v, want ErrWorkingSetTooSmall", g.Name(), ws, err)
			}
		}
		for seed := int64(1); seed <= 5; seed++ {
			if _, err := g.Generate(Params{Seed: seed, Ops: 3000, WorkingSetPages: need}); err != nil {
				t.Errorf("%s at its %d-page minimum: %v", g.Name(), need, err)
			}
		}
	}
	for g, want := range map[Generator]int64{NewTiobench(): 4, NewTPCC(): 17} {
		if got := g.MinWorkingSetPages(); got != want {
			t.Errorf("%s: MinWorkingSetPages %d, want %d", g.Name(), got, want)
		}
	}
}

// TestDirectShareOrdering checks the relative Table 1 structure at the
// issue level: TPC-C ≫ Tiobench ≫ the buffered-heavy benchmarks.
func TestDirectShareOrdering(t *testing.T) {
	p := testParams()
	share := map[string]float64{}
	for _, g := range All() {
		reqs, err := g.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		st := trace.Summarize(reqs)
		share[g.Name()] = st.DirectRatio
	}
	if share["TPC-C"] < 0.95 {
		t.Errorf("TPC-C direct share = %v, want ≈ 1", share["TPC-C"])
	}
	if share["Tiobench"] <= share["YCSB"] || share["Tiobench"] <= share["Filebench"] {
		t.Errorf("Tiobench direct share %v not above buffered-heavy benchmarks", share["Tiobench"])
	}
	for _, b := range []string{"YCSB", "Postmark", "Filebench", "Bonnie++"} {
		if share[b] > 0.5 {
			t.Errorf("%s direct share = %v, want buffered-dominated", b, share[b])
		}
	}
}

func TestThinkTimesIncludeIdleGaps(t *testing.T) {
	p := testParams()
	for _, g := range All() {
		reqs, err := g.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		long := 0
		for _, r := range reqs {
			if r.Time >= 200*time.Millisecond {
				long++
			}
		}
		if long == 0 {
			t.Errorf("%s: no idle gaps for background GC", g.Name())
		}
		if long > len(reqs)/2 {
			t.Errorf("%s: %d/%d requests behind long gaps — no bursts", g.Name(), long, len(reqs))
		}
	}
}

func TestZipfLPNStaysInRange(t *testing.T) {
	f := func(seed int64, wsRaw uint16) bool {
		ws := int64(wsRaw%5000) + 10
		e := newEngine(Params{Seed: seed}, 0.1)
		z := newZipfLPN(e.r, ws, 1.05)
		for i := 0; i < 200; i++ {
			lpn := z.next(ws)
			if lpn < 0 || lpn >= ws {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestZipfIsSkewed(t *testing.T) {
	e := newEngine(Params{Seed: 1}, 0.1)
	const ws = 10000
	z := newZipfLPN(e.r, ws, 1.2)
	counts := map[int64]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[z.next(ws)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/n < 0.01 {
		t.Errorf("hottest page share %v — distribution not skewed", float64(max)/n)
	}
	if len(counts) < 100 {
		t.Errorf("only %d distinct pages — too concentrated", len(counts))
	}
}

func TestClampExtent(t *testing.T) {
	cases := []struct {
		lpn       int64
		pages     int
		ws        int64
		wantLPN   int64
		wantPages int
	}{
		{0, 10, 100, 0, 10},
		{95, 10, 100, 90, 10},
		{-5, 10, 100, 0, 10},
		{0, 200, 100, 0, 100},
	}
	for _, c := range cases {
		lpn, pages := clampExtent(c.lpn, c.pages, c.ws)
		if lpn != c.wantLPN || pages != c.wantPages {
			t.Errorf("clampExtent(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.lpn, c.pages, c.ws, lpn, pages, c.wantLPN, c.wantPages)
		}
	}
}

func TestBalancerConvergesOnEffectiveVolume(t *testing.T) {
	// Uniform non-overlapping writes (no coalescing) must hit the direct
	// target exactly at issue level.
	e := newEngine(Params{Seed: 1}, 0.30)
	var lpn int64
	for i := 0; i < 5000; i++ {
		e.think(time.Millisecond)
		e.emitWrite(lpn, 2)
		lpn += 2
	}
	st := trace.Summarize(e.reqs)
	if math.Abs(st.DirectRatio-0.30) > 0.02 {
		t.Errorf("direct ratio = %v, want ≈ 0.30", st.DirectRatio)
	}
}

func TestCoalescingAccounting(t *testing.T) {
	e := newEngine(Params{Seed: 1}, 0.5)
	// Two writes of the same page within τ_expire: the second must not
	// count as effective volume.
	e.think(time.Second)
	e.emitWriteKind(trace.BufferedWrite, 0, 1)
	if e.writtenPages != 1 {
		t.Fatalf("first write effective = %d", e.writtenPages)
	}
	e.think(time.Second)
	e.emitWriteKind(trace.BufferedWrite, 0, 1)
	if e.writtenPages != 1 {
		t.Errorf("coalesced rewrite counted: %d", e.writtenPages)
	}
	// After τ_expire it counts again.
	e.think(coalesceExpire + time.Second)
	e.emitWriteKind(trace.BufferedWrite, 0, 1)
	if e.writtenPages != 2 {
		t.Errorf("expired rewrite not counted: %d", e.writtenPages)
	}
}

func TestBurstClockShape(t *testing.T) {
	e := newEngine(Params{Seed: 1}, 0.1)
	b := &burstClock{
		lenLo: 10, lenHi: 10,
		intraLo: time.Millisecond, intraHi: time.Millisecond,
		idleLo: time.Second, idleHi: time.Second,
	}
	// First call opens a burst with an idle gap, then 10 intra gaps follow.
	if got := b.next(e); got != time.Second {
		t.Errorf("burst start gap = %v", got)
	}
	for i := 0; i < 10; i++ {
		if got := b.next(e); got != time.Millisecond {
			t.Errorf("intra gap %d = %v", i, got)
		}
	}
	if got := b.next(e); got != time.Second {
		t.Errorf("next burst gap = %v", got)
	}
}

// TestPageTableMatchesMap holds the engine's coalescing page table, as
// newEngine sizes it, to a Go map under random set, get and clear over LPNs
// up to 4·ws, so three quarters of them (all, for an engine with no working
// set, as the engine tests build it) lie past the directory it was sized
// for. Chunk allocation is lpnmap's own test.
func TestPageTableMatchesMap(t *testing.T) {
	f := func(seed uint64, wsRaw uint16) bool {
		ws := int64(wsRaw%2000) + 1
		r := randv2.New(randv2.NewPCG(seed, 1))
		sized := ws
		if seed%2 == 0 {
			sized = 0
		}
		tbl := &newEngine(Params{Seed: 1, WorkingSetPages: sized}, 0.1).dirty
		ref := map[int64]time.Duration{}
		for i := 0; i < 3000; i++ {
			lpn := r.Int64N(4 * ws)
			switch r.IntN(3) {
			case 0:
				v := time.Duration(r.Int64N(1<<40)) + 1
				tbl.Set(lpn, v)
				ref[lpn] = v
			case 1:
				tbl.Clear(lpn)
				delete(ref, lpn)
			}
			if got := tbl.Get(lpn); got != ref[lpn] {
				t.Logf("ws %d: Get(%d) = %v, want %v", ws, lpn, got, ref[lpn])
				return false
			}
		}
		for lpn := int64(0); lpn < 4*ws+64; lpn++ {
			if tbl.Get(lpn) != ref[lpn] {
				t.Logf("ws %d: final Get(%d) = %v, want %v", ws, lpn, tbl.Get(lpn), ref[lpn])
				return false
			}
		}
		n := 0
		for lpn, v := range tbl.All() {
			if ref[lpn] != v {
				t.Logf("ws %d: All yields %d → %v, want %v", ws, lpn, v, ref[lpn])
				return false
			}
			n++
		}
		if n != len(ref) {
			t.Logf("ws %d: All yields %d pages, want %d", ws, n, len(ref))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
