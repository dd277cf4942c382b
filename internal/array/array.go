// Package array shards one host request stream over an N-device SSD array:
// the logical page space is striped across per-device sim.Simulator
// instances, requests fan out through one shared event clock, and
// per-device metrics merge into array-level IOPS/WAF/latency plus a
// per-device spread report.
//
// The interesting degree of freedom is garbage-collection coordination.
// With each device running its BGC policy independently (the unsynchronized
// baseline of Zheng & Burns), a striped request is delayed whenever ANY of
// its devices happens to be collecting, so per-device GC that is rare in
// isolation compounds into frequent array-level tail-latency spikes. Worse,
// a member device only sees its own 1/N slice of the stream and cannot tell
// a think-time lull from the end of a burst, so it collects on its local
// schedule — often in the middle of an array-level burst.
//
// The coordinated mode lifts JIT-GC's idle-time test to the array, which
// observes the whole request stream: while any request arrived in the
// current write-back interval the array is mid-burst and non-critical
// collection is deferred; once an interval passes with no arrivals the
// array is in an inter-burst gap and the deferred work is released. Release
// goes through a rotation token — at most K devices collect per interval —
// and each grant collects ahead to the device's full predicted deficit,
// because the next burst may start before the token returns. Urgency is
// the paper's T_idle/T_gc test against aggregate demand: when the idle
// time left in the write-back horizon cannot cover the aggregate GC debt
// at concurrency K, deferral is suspended and token holders collect even
// mid-burst. Devices whose free space no longer covers their own demand
// bypass the token entirely — denying them would only convert the same
// work into a foreground stall.
//
// The array also survives its members: optional mirror or parity stripe
// protection serves requests that touch a degraded member from redundancy
// (redundancy.go), standby spares are rebuilt into dead slots in the
// background while survivors keep serving (rebuild.go), and adding devices
// triggers an online reshape that rebalances existing stripes into the
// widened layout.
package array

import (
	"fmt"
	"math"
	"time"

	"jitgc/internal/core"
	"jitgc/internal/metrics"
	"jitgc/internal/sim"
	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
)

// Mode selects how per-device background GC is coordinated.
type Mode string

// Coordination modes.
const (
	// Independent lets every device run its own BGC policy unmodified —
	// the unsynchronized baseline.
	Independent Mode = "independent"
	// Coordinated gates BGC behind a rotation token (at most
	// MaxConcurrentGC devices collect per interval) with array-level
	// urgency detection.
	Coordinated Mode = "coordinated"
)

// ParseMode converts a flag string into a Mode.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case Independent, Coordinated:
		return Mode(s), nil
	}
	return "", fmt.Errorf("array: unknown coordination mode %q (want %q or %q)",
		s, Independent, Coordinated)
}

// AdaptiveCap, assigned to Config.MaxConcurrentGC, sizes the rotation
// token from the observed per-interval free-space burn instead of a static
// width: every interval the coordinator admits just enough concurrent
// collectors that one interval of collection covers the aggregate burn.
const AdaptiveCap = -1

// Config assembles an array simulation.
type Config struct {
	// Devices is the number of SSDs in the array (≥ 1).
	Devices int
	// StripePages is the striping granularity in logical pages: 1 stripes
	// page-granular, larger values segment-granular. Default 64 pages
	// (256 KiB at 4 KiB pages, a conventional RAID-0 stripe unit).
	StripePages int64
	// Mode selects GC coordination (default Independent).
	Mode Mode
	// MaxConcurrentGC is K, the rotation-token width in Coordinated mode:
	// at most this many devices run background GC in one write-back
	// interval. AdaptiveCap (-1) resizes K every interval from the
	// aggregate burn rate. Default: max(1, Devices/2) up to 8 devices —
	// the regime the static width was tuned in — and AdaptiveCap beyond.
	// Devices facing imminent foreground GC bypass the token, so K bounds
	// steady-state concurrency, not crisis response.
	MaxConcurrentGC int
	// Redundancy selects stripe protection (default RedundancyNone).
	// Mirror halves the array's logical capacity, parity costs 1/N of it;
	// both let requests touching a degraded member be served instead of
	// failed fast.
	Redundancy Redundancy
	// Spares is the number of standby devices built alongside the array.
	// When a member degrades, a spare (if any remain) is attached and the
	// shard is rebuilt onto it in the background; on completion the spare
	// takes over the slot.
	Spares int
	// RebuildPagesPerTick budgets background shard migration: each active
	// rebuild (and the rebalancing reshape) moves at most this many pages
	// per write-back tick, bounding the maintenance traffic's intrusion on
	// foreground latency. Default 1024.
	RebuildPagesPerTick int64
	// GrowDevices adds this many fresh devices once the run reaches
	// GrowAfter, triggering an online reshape that rebalances existing
	// stripes into the widened layout (RedundancyNone only). The array's
	// logical capacity grows when the reshape completes.
	GrowDevices int
	// GrowAfter is the simulation time at which GrowDevices join.
	GrowAfter time.Duration
	// Device configures each member device. PreconditionPages is
	// per-device. NonPreemptiveBGC is forced on: array tail latency is
	// about striped requests colliding with per-device collections, which
	// requires collections to occupy the device for real.
	Device sim.Config
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.StripePages == 0 {
		c.StripePages = 64
	}
	if c.Mode == "" {
		c.Mode = Independent
	}
	if c.MaxConcurrentGC == 0 {
		if c.Devices > 8 {
			// The static N/2 width was only ever tuned at ≤8 devices; at
			// larger N it admits more simultaneous collectors than the
			// aggregate burn ever needs and the per-device tails spread.
			c.MaxConcurrentGC = AdaptiveCap
		} else {
			c.MaxConcurrentGC = c.Devices / 2
			if c.MaxConcurrentGC < 1 {
				c.MaxConcurrentGC = 1
			}
		}
	}
	if c.Redundancy == "" {
		c.Redundancy = RedundancyNone
	}
	if c.RebuildPagesPerTick == 0 {
		c.RebuildPagesPerTick = 1024
	}
	c.Device.NonPreemptiveBGC = true
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Devices < 1 {
		return fmt.Errorf("array: need at least 1 device, got %d", c.Devices)
	}
	if c.StripePages < 1 {
		return fmt.Errorf("array: non-positive stripe %d pages", c.StripePages)
	}
	if _, err := ParseMode(string(c.Mode)); err != nil {
		return err
	}
	if c.MaxConcurrentGC < 1 && c.MaxConcurrentGC != AdaptiveCap {
		return fmt.Errorf("array: non-positive GC concurrency %d", c.MaxConcurrentGC)
	}
	if _, err := ParseRedundancy(string(c.Redundancy)); err != nil {
		return err
	}
	if c.Redundancy == RedundancyMirror && c.Devices < 2 {
		return fmt.Errorf("array: mirroring needs at least 2 devices, got %d", c.Devices)
	}
	if c.Redundancy == RedundancyParity && c.Devices < 3 {
		return fmt.Errorf("array: parity needs at least 3 devices, got %d", c.Devices)
	}
	if c.Spares < 0 {
		return fmt.Errorf("array: negative spare count %d", c.Spares)
	}
	if c.RebuildPagesPerTick < 1 {
		return fmt.Errorf("array: non-positive rebuild budget %d pages/tick", c.RebuildPagesPerTick)
	}
	if c.GrowDevices < 0 {
		return fmt.Errorf("array: negative growth %d devices", c.GrowDevices)
	}
	if c.GrowDevices > 0 && c.Redundancy != RedundancyNone {
		return fmt.Errorf("array: online rebalancing requires redundancy %q, got %q",
			RedundancyNone, c.Redundancy)
	}
	return c.Device.Validate()
}

// Array drives N per-device simulators on one shared clock.
type Array struct {
	cfg      Config
	factory  sim.PolicyFactory // retained to build devices added by growth
	devs     []*sim.Simulator
	ext      [][]extent // per-device split scratch, reused across requests
	token    int        // next device the rotation token visits
	tr       *telemetry.Tracer
	degraded []error // non-nil once the member failed a device operation
	failed   int64   // array requests failed fast against degraded members
	torn     int64   // partial stripe mutations: a segment failed after earlier ones landed

	perDevPages int64 // usable pages per device, stripe-aligned
	userPages   int64 // array logical capacity

	spares        []*sim.Simulator // standby pool, attached to slots as members degrade
	nextTag       int              // telemetry device index for the next constructed device
	rebuilds      []*rebuildState  // active spare migrations
	rebuilt       []int            // slots whose spare took over
	rebuildPages  int64
	rebuildTime   time.Duration
	replaced      []metrics.Results // records of members swapped out after rebuild
	replacedSlots []int

	reshape       *reshapeState // active (or aborted) rebalancing
	grown         bool
	rebalanced    int64
	rebalanceTime time.Duration

	degradedReads  int64 // extents served from redundancy instead of a dead primary
	degradedWrites int64 // write extents that mutated redundancy in a dead primary's stead

	lat      metrics.LatencyRecorder
	requests int64
	opsEnd   time.Duration

	intervalReqs                       int64   // arrivals since the last write-back tick
	lastFree                           []int64 // per-device free bytes at the previous tick (-1 before the first)
	burnEMA                            []int64 // per-device free-space burn per interval, decaying peak
	granted, denied, boosted, bypassed int64
	capNow                             int // token width resolved at the latest interval

	// Per-tick scratch, one slot per device, cleared at the start of every
	// tick instead of allocated by it.
	decs []core.Decision // this interval's decisions, as coordinate adjusted them
	free []int64         // coordinate's per-device writable bytes
}

// extent is a run of contiguous device-local pages within one request.
type extent struct {
	lpn   int64
	pages int
}

// New builds an array of cfg.Devices simulators, each with its own policy
// instance from factory.
func New(cfg Config, factory sim.PolicyFactory) (*Array, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	devs := make([]*sim.Simulator, cfg.Devices)
	for i := range devs {
		// Each member's events carry its device index; the shared sink
		// interleaves them into one array-level trace.
		devCfg := cfg.Device
		devCfg.Tracer = cfg.Device.Tracer.WithDevice(i)
		s, err := sim.New(devCfg, factory)
		if err != nil {
			return nil, fmt.Errorf("array: device %d: %w", i, err)
		}
		devs[i] = s
	}
	// Each device contributes a whole number of stripes; the remainder is
	// unaddressable so that every array LPN maps inside its device. Under
	// mirroring only the lower half of each device is primary shard (the
	// upper half holds the neighbor's copy); under parity each device
	// carries one unit — data or parity — per stripe row.
	devUser := devs[0].FTL().UserPages()
	if cfg.Redundancy == RedundancyMirror {
		devUser /= 2
	}
	perDev := devUser / cfg.StripePages * cfg.StripePages
	if perDev == 0 {
		return nil, fmt.Errorf("array: stripe %d pages exceeds device capacity %d",
			cfg.StripePages, devUser)
	}
	dataDevs := int64(cfg.Devices)
	if cfg.Redundancy == RedundancyParity {
		dataDevs--
	}
	spares := make([]*sim.Simulator, cfg.Spares)
	for i := range spares {
		// Spares start empty — no preconditioning — and stay idle until a
		// rebuild attaches them; their events carry indices past the
		// members'.
		devCfg := cfg.Device
		devCfg.Tracer = cfg.Device.Tracer.WithDevice(cfg.Devices + i)
		devCfg.PreconditionPages = 0
		s, err := sim.New(devCfg, factory)
		if err != nil {
			return nil, fmt.Errorf("array: spare %d: %w", i, err)
		}
		spares[i] = s
	}
	lastFree := make([]int64, cfg.Devices)
	for i := range lastFree {
		lastFree[i] = -1
	}
	capNow := cfg.MaxConcurrentGC
	if capNow == AdaptiveCap {
		capNow = 1
	}
	a := &Array{
		cfg:         cfg,
		factory:     factory,
		devs:        devs,
		ext:         make([][]extent, cfg.Devices),
		tr:          cfg.Device.Tracer,
		degraded:    make([]error, cfg.Devices),
		spares:      spares,
		nextTag:     cfg.Devices + cfg.Spares,
		lastFree:    lastFree,
		burnEMA:     make([]int64, cfg.Devices),
		decs:        make([]core.Decision, cfg.Devices),
		free:        make([]int64, cfg.Devices),
		capNow:      capNow,
		perDevPages: perDev,
		userPages:   perDev * dataDevs,
	}
	// The array-level recorder follows the member setting: whole-request
	// latencies stream into a constant-memory histogram when the members'
	// own recorders do.
	if cfg.Device.StreamingLatency {
		a.lat = *metrics.NewStreamingLatencyRecorder()
	}
	return a, nil
}

// UserPages returns the array's addressable logical capacity in pages.
func (a *Array) UserPages() int64 { return a.userPages }

// Device returns member device i, for inspection in tests and reports.
func (a *Array) Device(i int) *sim.Simulator { return a.devs[i] }

// locate maps an array LPN to its primary device index and device-local
// LPN. Without parity, stripe s lands on device s mod N at local stripe
// s div N; during an online reshape, stripes the migration cursor has
// passed use the grown layout while the rest keep the old one. Under
// rotated parity, row r = s div (N-1) skips the row's parity member and
// every member holds exactly one unit per row at local r·stripe.
func (a *Array) locate(alpn int64) (int, int64) {
	stripe := a.cfg.StripePages
	s, off := alpn/stripe, alpn%stripe
	if a.cfg.Redundancy == RedundancyParity {
		n := int64(a.cfg.Devices)
		row := s / (n - 1)
		d := s % (n - 1)
		if d >= row%n {
			d++
		}
		return int(d), row*stripe + off
	}
	n := int64(len(a.devs))
	if r := a.reshape; r != nil && s >= r.cursor {
		n = int64(r.oldN)
	}
	return int(s % n), (s/n)*stripe + off
}

// Run executes the request stream open-loop (absolute arrival times).
func (a *Array) Run(reqs []trace.Request) (Results, error) {
	return a.replay(reqs, false)
}

// RunClosedLoop executes the request stream closed-loop: each request's
// Time is a think time after the previous request's array-level completion
// (the max over its striped segments), so a single slow device stalls the
// whole stream — exactly the amplification coordination is measured
// against.
func (a *Array) RunClosedLoop(reqs []trace.Request) (Results, error) {
	return a.replay(reqs, true)
}

func (a *Array) replay(reqs []trace.Request, closed bool) (Results, error) {
	a.lat.Reserve(len(reqs))
	dev := a.cfg.Device
	if err := sim.Replay(a, reqs, closed, dev.Cache.FlusherPeriod, dev.DrainCache); err != nil {
		return Results{}, err
	}
	return a.Results(), nil
}

// Begin preconditions every member; with StepRequest, Tick, DeviceFreeAt
// and Pending it makes the array a sim.Device.
func (a *Array) Begin() error {
	for i, d := range a.devs {
		if err := d.Begin(); err != nil {
			return fmt.Errorf("array: device %d: %w", i, err)
		}
	}
	return nil
}

// DeviceFreeAt returns the time the last healthy member falls idle: an
// open-loop source dispatching at this instant finds the whole array free.
func (a *Array) DeviceFreeAt() time.Duration {
	var t time.Duration
	for i, d := range a.devs {
		if a.degraded[i] == nil {
			t = max(t, d.DeviceFreeAt())
		}
	}
	return t
}

// Pending reports whether ticks must keep firing past the last request: a
// healthy member's cache still holds dirty pages, or rebuild/rebalance work
// has not run to completion — a run does not end with a spare
// half-migrated. Degraded members are excluded: their caches can never
// drain, and waiting on them would spin the drain loop forever.
func (a *Array) Pending() bool {
	for i, d := range a.devs {
		if a.degraded[i] == nil && d.Pending() {
			return true
		}
	}
	return a.maintenancePending()
}

// Degraded returns the device failure that degraded member i, or nil while
// it is healthy.
func (a *Array) Degraded(i int) error { return a.degraded[i] }

// degrade takes member dev out of service after a device operation failed
// fatally. The array keeps running: requests striped onto the member are
// served from redundancy when configured (failed fast otherwise), the
// other members keep serving theirs, and the degraded member is skipped by
// the tick loop and the GC coordinator from here on. Only the first
// failure per member is recorded. If the spare pool has a device, a
// background rebuild starts immediately.
func (a *Array) degrade(t time.Duration, dev int, err error) {
	if a.degraded[dev] != nil {
		return
	}
	a.degraded[dev] = err
	a.tr.DeviceDegraded(t, dev, err.Error())
	a.startRebuild(t, dev)
}

// StepRequest splits one array request into per-device segments, services
// them, and records the array-level completion (the slowest segment). It
// returns the closed-loop anchor: that completion, or for a request that
// could not be served its own issue time.
//
// A request touching a degraded member that redundancy cannot stand in for
// fails fast BEFORE any segment is issued — no partial stripe write lands
// on the survivors — and is counted in FailedRequests instead of the
// served-request and latency statistics. A segment that fails on a healthy
// member degrades that member (the error is a device failure: trace bounds
// are validated at the array level); the request is then served from
// redundancy where configured, and otherwise fails with the stripe TORN —
// segments issued before the failure have already landed on the survivors.
// Torn stripes are counted and traced; a later rewrite of the stripe (or,
// in salvage rebuilds, the swapped-in spare's pre-failure copy of the dead
// segment) is what reconciles them.
func (a *Array) StepRequest(r trace.Request) (time.Duration, error) {
	if r.End() > a.userPages {
		return 0, fmt.Errorf("%w: lpn %d..%d, array capacity %d",
			sim.ErrTraceBeyondCapacity, r.LPN, r.End(), a.userPages)
	}
	a.split(r.LPN, r.Pages)
	for i, exts := range a.ext {
		if len(exts) > 0 && a.degraded[i] != nil && !a.canServeDegraded(i) {
			return a.failRequest(r), nil
		}
	}
	var completion time.Duration
	landed := false
	for i, exts := range a.ext {
		for _, e := range exts {
			c, ok := a.issueExtent(r, i, e)
			if !ok {
				if landed && r.Kind != trace.Read {
					a.torn++
					a.tr.StripeTorn(r.Time, i, r.LPN, r.Pages)
				}
				return a.failRequest(r), nil
			}
			landed = true
			if c > completion {
				completion = c
			}
		}
	}
	a.requests++
	a.intervalReqs++
	a.lat.Add(completion - r.Time)
	if completion > a.opsEnd {
		a.opsEnd = completion
	}
	return completion, nil
}

// failRequest counts one array request that could not be served, and
// anchors the closed-loop clock at the request's own issue time: the next
// arrival's think time must not be measured from an older successful
// completion, which would schedule it in the past.
func (a *Array) failRequest(r trace.Request) time.Duration {
	a.failed++
	return r.Time
}

// split decomposes the array extent [lpn, lpn+pages) into per-device local
// extents in a.ext, merging stripes that land contiguously on the same
// device so each device sees the fewest possible sub-requests.
func (a *Array) split(lpn int64, pages int) {
	for i := range a.ext {
		a.ext[i] = a.ext[i][:0]
	}
	for pages > 0 {
		dev, dlpn := a.locate(lpn)
		run := int(a.cfg.StripePages - lpn%a.cfg.StripePages)
		if run > pages {
			run = pages
		}
		if exts := a.ext[dev]; len(exts) > 0 && exts[len(exts)-1].lpn+int64(exts[len(exts)-1].pages) == dlpn {
			exts[len(exts)-1].pages += run
		} else {
			a.ext[dev] = append(exts, extent{dlpn, run})
		}
		lpn += int64(run)
		pages -= run
	}
}

// Tick runs one write-back boundary across the array in three phases —
// every device flushes, every device's policy decides, the coordinator
// adjusts the decisions, every device applies — so the coordinator sees
// all demands before any collection is committed.
// Degraded members are skipped throughout — their caches cannot flush and
// their policies must not be consulted — and a flush failure on a healthy
// member degrades it rather than aborting the array run.
func (a *Array) Tick(t time.Duration) error {
	if err := a.maybeGrow(t); err != nil {
		return err
	}
	for i, d := range a.devs {
		if a.degraded[i] != nil {
			continue
		}
		if err := d.TickFlush(t); err != nil {
			a.degrade(t, i, err)
		}
	}
	decs := a.decs
	clear(decs)
	for i, d := range a.devs {
		if a.degraded[i] != nil {
			continue
		}
		decs[i] = d.TickDecide(t)
	}
	if a.cfg.Mode == Coordinated && len(a.devs) > 1 {
		a.coordinate(t, decs)
	}
	a.intervalReqs = 0
	for i, d := range a.devs {
		if a.degraded[i] != nil {
			continue
		}
		d.TickApply(t, decs[i])
	}
	// Maintenance runs after the interval's GC program is installed, so
	// rebuild and reshape I/O interleaves with the collections the
	// coordinator just committed on the shared device timelines.
	a.stepRebuilds(t)
	a.stepReshape(t)
	return nil
}

// coordinate adjusts this interval's per-device decisions using what only
// the array can see: whether the whole stream is mid-burst or in an
// inter-burst gap, and how fast each device actually burns free space while
// the burst runs.
//
// Devices that would burn through their remaining free space within about
// two busy intervals are critical — denying them would convert the same
// work into a foreground stall — so their own request passes through
// without consuming a token slot. Mid-burst, every other request is
// deferred: the device policy only sees its 1/N slice of the stream and
// asks just-in-time, but the array knows an inter-burst gap is coming where
// the identical work costs nothing. When the array-level urgency test says
// the idle time left in the horizon cannot absorb the aggregate GC debt,
// deferral is suspended and asks are granted through the token, at most
// MaxConcurrentGC per interval, never enlarged — a boosted target mid-burst
// grinds victim-collection chunks between host requests for the rest of the
// interval. In a gap the token instead tops each grant up toward the
// device's predicted horizon deficit, capped at half an interval of GC
// bandwidth so the work is finished well before a burst can resume.
//
// Urgency is the paper's T_idle/T_gc test lifted to the array: aggregate
// demand over the τ_expire horizon versus aggregate free space, with GC
// throughput limited to K concurrent collectors.
func (a *Array) coordinate(t time.Duration, decs []core.Decision) {
	n := len(a.devs)
	busy := a.intervalReqs > 0

	healthy := 0
	free := a.free
	clear(free)
	var freeTotal, demandTotal int64
	var bwTotal, bgcMean float64
	for i, d := range a.devs {
		if a.degraded[i] != nil {
			continue
		}
		healthy++
		free[i] = d.FTL().WritableBytes()
		freeTotal += free[i]
		demand := decs[i].PredictedBytes
		if demand == 0 {
			// Non-predictive policies: their reclaim request is the best
			// available proxy for upcoming demand.
			demand = decs[i].ReclaimBytes
		}
		demandTotal += demand
		bwTotal += d.FTL().WriteBandwidth()
		bgcMean += d.FTL().GCBandwidth()
	}
	if healthy == 0 {
		return
	}
	bgcMean /= float64(healthy)

	// Track how much free space each device burns per busy interval: the
	// predictor's horizon average understates the instantaneous burst rate,
	// and the burn rate is what decides whether deferring a device starves
	// it before the next tick. Tracked as a slowly decaying peak — an
	// averaging estimate gets diluted by the trickle intervals at burst
	// edges and then under-protects against the next full-rate interval.
	for i := range free {
		if a.degraded[i] != nil {
			continue
		}
		a.burnEMA[i] -= a.burnEMA[i] / 8
		if burn := a.lastFree[i] - free[i]; a.lastFree[i] >= 0 && burn > a.burnEMA[i] {
			a.burnEMA[i] = burn
		}
		a.lastFree[i] = free[i]
	}

	k := a.cfg.MaxConcurrentGC
	if k == AdaptiveCap {
		k = a.adaptiveCap(healthy, bgcMean)
	}
	a.capNow = k

	urgent := false
	if demandTotal > freeTotal && bwTotal > 0 && bgcMean > 0 {
		tw := float64(demandTotal) / bwTotal
		tidle := a.cfg.Device.Cache.Expire.Seconds() - tw
		if tidle < 0 {
			tidle = 0
		}
		tgc := float64(demandTotal-freeTotal) / (float64(k) * bgcMean)
		urgent = tgc > tidle
	}

	// nwb is the number of write-back intervals in the τ_expire horizon: a
	// predictive policy's PredictedBytes spreads over nwb intervals.
	nwb := float64(a.cfg.Device.Cache.Expire) / float64(a.cfg.Device.Cache.FlusherPeriod)
	if nwb < 1 {
		nwb = 1
	}

	grants := 0
	advanceTo := -1
	for j := 0; j < n; j++ {
		i := (a.token + j) % n
		if a.degraded[i] != nil {
			continue
		}
		ask := decs[i].ReclaimBytes
		need := int64(float64(decs[i].PredictedBytes) / nwb)
		if a.burnEMA[i] > need {
			need = a.burnEMA[i]
		}
		critical := free[i] < 2*need || (ask > 0 && free[i] < ask)

		if busy {
			if ask <= 0 {
				continue
			}
			if critical {
				// Token bypass: deferral would become FGC. Counted as a
				// grant (the work proceeds) AND as a bypass, so grant-rate
				// analysis can separate steady-state token pressure from
				// crisis response.
				a.granted++
				a.bypassed++
				a.tr.Token(t, i, telemetry.ActionBypass, decs[i].ReclaimBytes, free[i])
				continue
			}
			if !urgent {
				decs[i].ReclaimBytes = 0
				a.denied++ // deferred to the next inter-burst gap
				a.tr.Token(t, i, telemetry.ActionDeny, ask, free[i])
				continue
			}
			// Urgent mid-burst: grant asks as-is through the token — never
			// enlarged, a boosted target here grinds victim-collection
			// chunks between host requests for the rest of the interval.
			if grants < k {
				grants++
				a.granted++
				advanceTo = i
				a.tr.Token(t, i, telemetry.ActionGrant, decs[i].ReclaimBytes, free[i])
			} else {
				decs[i].ReclaimBytes = 0
				a.denied++
				a.tr.Token(t, i, telemetry.ActionDeny, ask, free[i])
			}
			continue
		}

		// Inter-burst gap: top each grant up toward the predicted horizon
		// deficit — critical devices included, idle collection costs
		// nothing — so the next burst runs without any collection at all.
		// The device policy alone would wait just-in-time and end up
		// collecting mid-burst.
		want := ask
		if deficit := decs[i].PredictedBytes + need - free[i]; deficit > want {
			want = deficit
		}
		if lim := int64(a.devs[i].FTL().GCBandwidth() * a.cfg.Device.Cache.FlusherPeriod.Seconds() / 2); lim > ask && want > lim {
			// Cap the top-up at half an interval of GC bandwidth so it
			// finishes well before a burst can resume — but never below
			// what the device itself asked for.
			want = lim
		}
		if want <= 0 {
			continue
		}
		switch {
		case grants < k:
			grants++
			a.granted++
			advanceTo = i
			action := telemetry.ActionGrant
			if want > ask {
				a.boosted++
				action = telemetry.ActionBoost
			}
			decs[i].ReclaimBytes = want
			a.tr.Token(t, i, action, want, free[i])
		case ask > 0 && critical:
			a.granted++ // beyond the token, but zeroing it would risk FGC
			a.bypassed++
			a.tr.Token(t, i, telemetry.ActionBypass, ask, free[i])
		case ask > 0:
			decs[i].ReclaimBytes = 0
			a.denied++
			a.tr.Token(t, i, telemetry.ActionDeny, ask, free[i])
		}
	}
	if advanceTo >= 0 {
		a.token = (advanceTo + 1) % n
	}
}

// adaptiveCap sizes the rotation-token width from observed demand: enough
// concurrent collectors that one interval of collection at the mean GC
// bandwidth covers the aggregate per-interval free-space burn, clamped to
// [1, healthy]. At 16–64 devices a static N/2 width lets half the array
// collect at once when the burn only ever needs a handful, and the extra
// collectors surface as per-device tail spread.
func (a *Array) adaptiveCap(healthy int, bgcMean float64) int {
	var burn int64
	for i := range a.burnEMA {
		if a.degraded[i] == nil {
			burn += a.burnEMA[i]
		}
	}
	k := 1
	if per := bgcMean * a.cfg.Device.Cache.FlusherPeriod.Seconds(); per > 0 && burn > 0 {
		k = int(math.Ceil(float64(burn) / per))
	}
	if k < 1 {
		k = 1
	}
	if k > healthy {
		k = healthy
	}
	return k
}
