// Package workload synthesizes the storage-level request streams of the six
// benchmarks the paper evaluates (YCSB, Postmark, Filebench, Bonnie++,
// Tiobench, TPC-C). Each generator reproduces the signature that drives the
// paper's results: the buffered/direct write mix of Table 1, an address
// pattern with the benchmark's overwrite locality, and a bursty closed-loop
// arrival process whose think-time gaps provide background-GC idle time.
//
// Generated request Time fields are think times for use with
// sim.RunClosedLoop.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"time"

	"jitgc/internal/lpnmap"
	"jitgc/internal/trace"
)

// Params configures a generation run.
type Params struct {
	// Seed makes generation deterministic.
	Seed int64
	// Source, when set, replaces Seed: generation draws from it instead of
	// from Seed's math/rand stream. That stream pins the goldens of every
	// single-device run but costs a 4.9 KB table to seed, so a caller that
	// builds thousands of short streams (the tenant engine) passes a small
	// generator here.
	Source randv2.Source
	// Ops is the number of host requests to generate.
	Ops int
	// WorkingSetPages is the logical address space the benchmark touches
	// (the paper sets it to half the user capacity).
	WorkingSetPages int64
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Ops <= 0 {
		return fmt.Errorf("workload: ops %d", p.Ops)
	}
	if p.WorkingSetPages <= 0 {
		return fmt.Errorf("workload: working set %d pages", p.WorkingSetPages)
	}
	if p.WorkingSetPages > math.MaxInt32 {
		// Every extent lies inside the working set, so this bound keeps
		// each emitted length within Request.Pages.
		return fmt.Errorf("workload: working set %d pages exceeds %d", p.WorkingSetPages, math.MaxInt32)
	}
	return nil
}

// ErrWorkingSetTooSmall reports a working set with fewer pages than a
// generator's address layout needs; the error names that minimum.
var ErrWorkingSetTooSmall = errors.New("workload: working set too small")

// Generator produces a benchmark's request stream.
type Generator interface {
	// Name is the benchmark name as the paper spells it.
	Name() string
	// MinWorkingSetPages is the smallest working set Generate accepts.
	MinWorkingSetPages() int64
	// Generate produces the closed-loop request stream.
	Generate(p Params) ([]trace.Request, error)
}

// validate reports p's errors, including a working set below g's minimum.
func validate(g Generator, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if need := g.MinWorkingSetPages(); p.WorkingSetPages < need {
		return fmt.Errorf("%w: %s needs at least %d pages, got %d",
			ErrWorkingSetTooSmall, g.Name(), need, p.WorkingSetPages)
	}
	return nil
}

// All returns the six paper benchmarks in the paper's column order.
func All() []Generator {
	return []Generator{
		NewYCSB(), NewPostmark(), NewFilebench(), NewBonnie(), NewTiobench(), NewTPCC(),
	}
}

// ByName returns the named generator.
func ByName(name string) (Generator, error) {
	for _, g := range All() {
		if g.Name() == name {
			return g, nil
		}
	}
	names := make([]string, 0, 6)
	for _, g := range All() {
		names = append(names, g.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, names)
}

// coalesceExpire mirrors the page cache's τ_expire: buffered rewrites of a
// page that is still dirty coalesce into a single eventual flush, so the
// balancer must count buffered volume net of coalescing to hit Table 1's
// ratios at the device interface.
const coalesceExpire = 30 * time.Second

// engine accumulates requests while balancing the buffered/direct volume
// split to a target ratio (Table 1) as seen by the device: each write is
// issued direct exactly when the running direct share of *effective*
// (post-coalescing) volume is below target, so the generated stream
// converges to the target regardless of size distributions or cache
// absorption.
type engine struct {
	r            *rand.Rand
	v2           v2Source // r's source when Params.Source is set
	reqs         []trace.Request
	ops          int   // stream length; 0 for unlimited
	writtenPages int64 // effective device-bound volume
	directPages  int64
	directTarget float64
	pendingThink time.Duration

	clock time.Duration // approximate stream time (sum of thinks)
	// dirty is the coalescing model: per page, the time its last buffered
	// write expires (last + coalesceExpire), 0 for a clean page. The clock
	// starts at 0 and an expiry is positive, so a clean page always counts.
	dirty lpnmap.Table[time.Duration]
}

// newEngine returns an engine for a stream of p.Ops requests drawn from p's
// randomness. A generator whose loop turn emits several requests would
// otherwise run past Ops on its last turn and grow the slice for requests it
// then cuts off, so emit drops anything beyond Ops; 0 (tests driving the
// engine by hand) means no limit.
func newEngine(p Params, directTarget float64) *engine {
	e := &engine{
		reqs:         make([]trace.Request, 0, p.Ops),
		ops:          p.Ops,
		directTarget: directTarget,
		dirty:        lpnmap.NewTable[time.Duration](p.WorkingSetPages),
	}
	if p.Source != nil {
		e.v2.src = p.Source
		e.r = rand.New(&e.v2) // the adapter lives in e: no allocation of its own
	} else {
		e.r = rand.New(rand.NewSource(p.Seed))
	}
	return e
}

// v2Source lets the generators' math/rand draws come from a math/rand/v2
// source.
type v2Source struct{ src randv2.Source }

func (s *v2Source) Uint64() uint64 { return s.src.Uint64() }
func (s *v2Source) Int63() int64   { return int64(s.src.Uint64() >> 1) }
func (*v2Source) Seed(int64)       { panic("workload: a Params.Source cannot be reseeded") }

// think schedules d as the think time before the next emitted request.
func (e *engine) think(d time.Duration) {
	e.pendingThink = d
	e.clock += d
}

// Per-page service estimates used to keep the engine's coalescing clock
// close to simulated time under closed-loop queueing (NAND program ≈ 2 ms
// and read ≈ 140 µs striped over 4 dies).
const (
	estDirectPage = 510 * time.Microsecond
	estReadPage   = 35 * time.Microsecond
	estRAMWrite   = 2 * time.Microsecond
)

func (e *engine) emit(kind trace.Kind, lpn int64, pages int) {
	if e.ops > 0 && len(e.reqs) == e.ops {
		return
	}
	e.reqs = append(e.reqs, trace.Request{
		Time:  e.pendingThink,
		Kind:  kind,
		LPN:   lpn,
		Pages: int32(pages),
	})
	e.pendingThink = 0
	switch kind {
	case trace.DirectWrite:
		e.clock += time.Duration(pages) * estDirectPage
	case trace.Read:
		e.clock += time.Duration(pages) * estReadPage
	default:
		e.clock += estRAMWrite
	}
}

// effectiveBuffered returns how many of the pages would reach the device if
// written buffered now: rewrites of still-dirty pages coalesce.
func (e *engine) effectiveBuffered(lpn int64, pages int) int {
	eff := 0
	for i := 0; i < pages; i++ {
		if e.clock >= e.dirty.Get(lpn+int64(i)) {
			eff++
		}
	}
	return eff
}

// markDirty records buffered pages in the coalescing model.
func (e *engine) markDirty(lpn int64, pages int) {
	for i := 0; i < pages; i++ {
		e.dirty.Set(lpn+int64(i), e.clock+coalesceExpire)
	}
}

// emitWrite issues a write, choosing buffered vs direct by the volume
// balancer.
func (e *engine) emitWrite(lpn int64, pages int) {
	kind := trace.BufferedWrite
	if e.writtenPages == 0 {
		if e.directTarget > 0.5 {
			kind = trace.DirectWrite
		}
	} else if float64(e.directPages)/float64(e.writtenPages) < e.directTarget {
		kind = trace.DirectWrite
	}
	e.emitWriteKind(kind, lpn, pages)
}

// emitWriteKind issues a write of an explicit kind, updating the balancer's
// effective-volume accounting (used directly by benchmarks with
// structurally direct streams such as database logs).
func (e *engine) emitWriteKind(kind trace.Kind, lpn int64, pages int) {
	if kind == trace.DirectWrite {
		e.directPages += int64(pages)
		e.writtenPages += int64(pages)
	} else {
		e.writtenPages += int64(e.effectiveBuffered(lpn, pages))
		e.markDirty(lpn, pages)
	}
	e.emit(kind, lpn, pages)
}

func (e *engine) emitRead(lpn int64, pages int) { e.emit(trace.Read, lpn, pages) }

// emitTrim issues a discard: trimmed pages leave the coalescing model (the
// cache drops them, so no flush will happen) and do not count as written
// volume.
func (e *engine) emitTrim(lpn int64, pages int) {
	for i := 0; i < pages; i++ {
		e.dirty.Clear(lpn + int64(i))
	}
	e.emit(trace.Trim, lpn, pages)
}

// intRange returns a uniform int in [lo, hi].
func (e *engine) intRange(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + e.r.Intn(hi-lo+1)
}

// durRange returns a uniform duration in [lo, hi].
func (e *engine) durRange(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(e.r.Int63n(int64(hi-lo)))
}

// burstClock produces the closed-loop think-time sequence: bursts of
// back-to-back requests separated by idle gaps.
type burstClock struct {
	lenLo, lenHi     int
	intraLo, intraHi time.Duration
	idleLo, idleHi   time.Duration
	left             int
}

// next returns the think time before the next request.
func (b *burstClock) next(e *engine) time.Duration {
	if b.left <= 0 {
		b.left = e.intRange(b.lenLo, b.lenHi)
		return e.durRange(b.idleLo, b.idleHi)
	}
	b.left--
	return e.durRange(b.intraLo, b.intraHi)
}

// clampExtent fits an extent of length pages at lpn inside [0, ws).
func clampExtent(lpn int64, pages int, ws int64) (int64, int) {
	if int64(pages) > ws {
		pages = int(ws)
	}
	if lpn < 0 {
		lpn = 0
	}
	if lpn+int64(pages) > ws {
		lpn = ws - int64(pages)
	}
	return lpn, pages
}

// zipfLPN draws a hot-skewed page index over [0, ws) using a shuffled
// mapping so hot pages are scattered across the address space the way a
// hash-partitioned store scatters hot keys.
type zipfLPN struct {
	z    *rand.Zipf
	perm []int64
}

func newZipfLPN(r *rand.Rand, ws int64, s float64) *zipfLPN {
	// Scatter hotness with an affine permutation lpn = (a·i + b) mod ws,
	// a coprime with ws, to avoid materializing a full permutation table
	// for large working sets.
	a := int64(2654435761 % uint64(ws))
	for gcd(a, ws) != 1 {
		a++
	}
	return &zipfLPN{
		z:    rand.NewZipf(r, s, 1, uint64(ws-1)),
		perm: []int64{a, int64(r.Int63n(ws))},
	}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

func (z *zipfLPN) next(ws int64) int64 {
	i := int64(z.z.Uint64())
	return (z.perm[0]*i + z.perm[1]) % ws
}
