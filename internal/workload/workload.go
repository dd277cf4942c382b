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
	"fmt"
	"math/rand"
	"sort"
	"time"

	"jitgc/internal/lpnmap"
	"jitgc/internal/trace"
)

// Params configures a generation run.
type Params struct {
	// Seed makes generation deterministic.
	Seed int64
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
	return nil
}

// Generator produces a benchmark's request stream.
type Generator interface {
	// Name is the benchmark name as the paper spells it.
	Name() string
	// Generate produces the closed-loop request stream.
	Generate(p Params) ([]trace.Request, error)
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
	reqs         []trace.Request
	ops          int   // stream length; 0 for unlimited
	writtenPages int64 // effective device-bound volume
	directPages  int64
	directTarget float64
	pendingThink time.Duration

	clock time.Duration             // approximate stream time (sum of thinks)
	dirty lpnmap.Map[time.Duration] // lpn → last buffered write, for coalescing
}

// newEngine returns an engine for a stream of ops requests. A generator whose
// loop turn emits several requests would otherwise run past ops on its last
// turn and grow the slice for requests it then cuts off, so emit drops
// anything beyond ops; 0 (tests driving the engine by hand) means no limit.
func newEngine(seed int64, directTarget float64, ops int) *engine {
	return &engine{
		r:            rand.New(rand.NewSource(seed)),
		reqs:         make([]trace.Request, 0, ops),
		ops:          ops,
		directTarget: directTarget,
	}
}

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
		Pages: pages,
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
		last, ok := e.dirty.Get(lpn + int64(i))
		if !ok || e.clock-last >= coalesceExpire {
			eff++
		}
	}
	return eff
}

// markDirty records buffered pages in the coalescing model.
func (e *engine) markDirty(lpn int64, pages int) {
	for i := 0; i < pages; i++ {
		e.dirty.Set(lpn+int64(i), e.clock)
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
		e.dirty.Delete(lpn + int64(i))
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
