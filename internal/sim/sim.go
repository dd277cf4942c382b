// Package sim is the discrete-event SSD simulator that ties the substrates
// together: host requests flow through the page cache (buffered) or
// directly (direct/read) to the FTL over a timed device model; a flusher
// tick fires every write-back period, running the cache flusher and then
// the installed BGC policy; background GC executes chunk-by-chunk in the
// idle gaps between events, exactly the resource model the paper's
// T_idle/T_gc reasoning assumes.
package sim

import (
	"errors"
	"fmt"
	"time"

	"jitgc/internal/core"
	"jitgc/internal/ftl"
	"jitgc/internal/metrics"
	"jitgc/internal/pagecache"
	"jitgc/internal/predictor"
	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
)

// ramLatency models the host-side cost of completing a buffered write into
// the page cache without touching the device.
const ramLatency = 2 * time.Microsecond

// Config assembles a simulation.
type Config struct {
	// FTL configures the device (geometry, timing, OP ratio, GC).
	FTL ftl.Config
	// Cache configures the page cache model (p, τ_expire, τ_flush).
	Cache pagecache.Config
	// PreconditionPages, when positive, sequentially writes this many
	// logical pages before the measured run (filling the working set the
	// way the paper's benchmarks run against a half-full SSD) and then
	// resets the activity counters. At most the FTL's user capacity. The
	// fill (ftl.FTL.Fill) programs a block per run; it writes page by page
	// only where a write could do more: with a fault model installed, over
	// already-mapped pages, or once the host stream needs foreground GC.
	PreconditionPages int64
	// DrainCache, when set, keeps running flusher ticks after the last
	// request until the cache is empty, so every buffered write reaches
	// the device and WAF accounting is complete. Enabled by default
	// configurations.
	DrainCache bool
	// Tracer, when non-nil, receives streaming telemetry events: one per
	// host request completion, per flush-tick policy decision (plus a stats
	// snapshot, the two together one metrics.TimelinePoint), and —
	// forwarded to the FTL — per GC collection and block erase. A nil
	// Tracer costs one pointer check per hook and emits nothing.
	Tracer *telemetry.Tracer
	// StreamingLatency switches the latency recorder to the log-bucketed
	// streaming histogram: memory constant in request count, percentiles
	// accurate to one histogram bucket (≤ ~3% relative error). The default
	// exact mode reports true order statistics — the mode the golden files
	// are rendered under — and over a run of known length retains only the
	// top 1% of samples that p99 and above read (see ExpectRequests).
	StreamingLatency bool
	// NonPreemptiveBGC models devices whose background collections cannot
	// be aborted once started (a NAND erase is not interruptible): a BGC
	// chunk begun in an idle gap runs to completion even when a host
	// request arrives meanwhile, delaying that request behind the
	// collection. The single-device experiments keep the paper's idealized
	// preemptible model (false); the array backend enables it, because the
	// tail-latency collisions between striped requests and per-device GC —
	// the effect coordination modes are measured against — only exist when
	// collections occupy the device for real.
	NonPreemptiveBGC bool
}

// DefaultConfig returns a ready-to-run scaled configuration: the default
// NAND geometry with 7% OP, the paper's p = 5 s / τ_expire = 30 s write-back
// parameters, and preconditioning of half the user capacity.
func DefaultConfig() Config {
	fcfg := ftl.DefaultConfig()
	ccfg := pagecache.DefaultConfig()
	ccfg.PageSize = fcfg.Geometry.PageSize
	ccfg.CapacityPages = 1 << 16 // 256 MiB of cache RAM at 4 KiB pages
	ccfg.FlushRatio = 0.25
	cfg := Config{FTL: fcfg, Cache: ccfg, DrainCache: true}
	user := ftl.UserPagesFor(fcfg.Geometry.TotalPages(), fcfg.OPRatio)
	cfg.PreconditionPages = user / 2
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.FTL.Validate(); err != nil {
		return err
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.Cache.PageSize != c.FTL.Geometry.PageSize {
		return fmt.Errorf("sim: cache page size %d != NAND page size %d",
			c.Cache.PageSize, c.FTL.Geometry.PageSize)
	}
	if c.PreconditionPages < 0 {
		return fmt.Errorf("sim: negative precondition %d", c.PreconditionPages)
	}
	if user := ftl.UserPagesFor(c.FTL.Geometry.TotalPages(), c.FTL.OPRatio); c.PreconditionPages > user {
		return fmt.Errorf("sim: precondition %d pages > user capacity %d", c.PreconditionPages, user)
	}
	return nil
}

// Env is what policy factories receive to wire a policy to the simulated
// host and device.
type Env struct {
	// Cache is the host page cache (the buffered-write predictor scans it).
	Cache *pagecache.Cache
	// FTL is the device FTL (for OP capacity and selector installation).
	FTL *ftl.FTL
	// WriteBack carries the interval parameters (p, τ_expire).
	WriteBack predictor.WriteBack
}

// OPBytes returns the device over-provisioning capacity C_OP.
func (e *Env) OPBytes() int64 { return e.FTL.OPBytes() }

// PolicyFactory builds a BGC policy bound to a simulation environment.
type PolicyFactory func(env *Env) (core.Policy, error)

// Simulator executes one run. Build with New, execute with Run.
type Simulator struct {
	cfg    Config
	cache  *pagecache.Cache
	ftl    *ftl.FTL
	policy core.Policy
	pview  core.DeviceView // boxed once; handed to the policy every tick
	env    *Env
	tr     *telemetry.Tracer

	parallel float64

	now          time.Duration
	deviceFreeAt time.Duration
	pendingBGC   int64 // bytes still to reclaim this interval
	bgcReadyAt   time.Duration
	gcRemaining  time.Duration // device time left on a preempted BGC chunk

	hostBusy     time.Duration // cumulative host-driven device time
	lastHostBusy time.Duration // snapshot at the previous tick
	idleFrac     float64       // EMA of per-interval device idle share

	acc            *predictor.AccuracyTracker
	predictive     bool
	preconditioned bool
	beginErr       error // what the one precondition attempt returned

	lat           metrics.LatencyRecorder
	requests      int64
	opsEnd        time.Duration
	bufferedPages int64
	directPages   int64
	cacheReadHits int64
}

// ErrTraceBeyondCapacity is returned when a request addresses pages outside
// the device's user capacity.
var ErrTraceBeyondCapacity = errors.New("sim: request beyond user capacity")

// New builds a simulator with a policy from factory.
func New(cfg Config, factory PolicyFactory) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cache, err := pagecache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	device, err := ftl.New(cfg.FTL)
	if err != nil {
		return nil, err
	}
	env := &Env{
		Cache: cache,
		FTL:   device,
		WriteBack: predictor.WriteBack{
			Period: cfg.Cache.FlusherPeriod,
			Expire: cfg.Cache.Expire,
		},
	}
	policy, err := factory(env)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:      cfg,
		cache:    cache,
		ftl:      device,
		policy:   policy,
		env:      env,
		parallel: float64(cfg.FTL.Geometry.Parallelism()),
		// Forecasts are scored over the full write-back horizon: a
		// policy's PredictedBytes is its C_req estimate for the coming
		// τ_expire window (Table 2's accuracy).
		acc:      predictor.NewAccuracyTracker(env.WriteBack.Nwb()),
		idleFrac: 1, // optimistic until the first interval is measured
		tr:       cfg.Tracer,
	}
	s.pview = view{s}
	device.SetTracer(cfg.Tracer)
	if cfg.StreamingLatency {
		s.lat = *metrics.NewStreamingLatencyRecorder()
	}
	// Every policy but a fixed reserve forecasts demand, and Table 2 scores
	// the forecast.
	_, fixed := policy.(core.FixedReserve)
	s.predictive = !fixed
	return s, nil
}

// FTL returns the simulated device.
func (s *Simulator) FTL() *ftl.FTL { return s.ftl }

// Cache returns the simulated page cache.
func (s *Simulator) Cache() *pagecache.Cache { return s.cache }

// Policy returns the installed BGC policy.
func (s *Simulator) Policy() core.Policy { return s.policy }

// scale converts serial NAND time into device-occupancy time assuming
// perfect striping across dies.
func (s *Simulator) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) / s.parallel)
}

// view adapts the simulator and FTL to the policy-facing DeviceView.
type view struct{ s *Simulator }

func (v view) FreeBytes() int64        { return v.s.ftl.WritableBytes() }
func (v view) WriteBandwidth() float64 { return v.s.ftl.WriteBandwidth() }
func (v view) GCBandwidth() float64    { return v.s.ftl.GCBandwidth() }
func (v view) IdleFraction() float64   { return v.s.idleFrac }

// Run executes the request stream open-loop: each request's Time field is
// its absolute arrival time (trace replay).
func (s *Simulator) Run(reqs []trace.Request) (metrics.Results, error) {
	return s.replay(reqs, false)
}

// RunClosedLoop executes the request stream closed-loop, the way the
// paper's benchmarks drive the SSD: each request's Time field is a *think
// time* — the gap between the previous request's completion and this
// request's issue. Device stalls (foreground GC) therefore push all
// subsequent work later and directly reduce IOPS, while think-time gaps
// provide the idle periods background GC exploits.
func (s *Simulator) RunClosedLoop(reqs []trace.Request) (metrics.Results, error) {
	return s.replay(reqs, true)
}

// ExpectRequests promises that at most n more host requests will complete
// on the simulator, so its latency recorder keeps only the tail its
// percentiles read (see metrics.LatencyRecorder.Bound). A request past the
// promise panics.
func (s *Simulator) ExpectRequests(n int) { s.lat.Bound(n) }

func (s *Simulator) replay(reqs []trace.Request, closed bool) (metrics.Results, error) {
	s.ExpectRequests(len(reqs))
	if err := Replay(s, reqs, closed, s.cfg.Cache.FlusherPeriod, s.cfg.DrainCache); err != nil {
		return metrics.Results{}, err
	}
	return s.Results(), nil
}

// Begin preconditions the device: it sequentially fills the configured
// working set and resets the counters so measurement starts from a realistic
// steady occupancy. The fill leaves the state one FTL write per page would,
// a block run at a time; it falls back to per-page writes with a fault model
// installed (faults are drawn per program), over pages already mapped, and
// wherever the host stream would need foreground GC (see ftl.FTL.Fill). It
// runs at most once per simulator, so an explicit Begin and a later Run
// compose, and its error is sticky: every later Begin, and so every run,
// returns it.
func (s *Simulator) Begin() error {
	if !s.preconditioned {
		s.preconditioned = true
		s.beginErr = s.precondition()
	}
	return s.beginErr
}

func (s *Simulator) precondition() error {
	if s.cfg.PreconditionPages == 0 {
		return nil
	}
	if err := s.ftl.Fill(s.cfg.PreconditionPages); err != nil {
		return fmt.Errorf("sim: precondition: %w", err)
	}
	s.ftl.ResetStats()
	return nil
}

// runBGCUntil executes pending background GC in the idle time before the
// next event at t. Background GC is preemptible: work that would overlap
// the next event is suspended (its remaining device time carries over to
// the next idle window) so arriving host requests are never blocked behind
// background collection — the defining difference from foreground GC.
func (s *Simulator) runBGCUntil(t time.Duration) {
	pageBytes := int64(s.ftl.PageSize())
	for s.pendingBGC > 0 || s.gcRemaining > 0 {
		start := s.deviceFreeAt
		if start < s.bgcReadyAt {
			start = s.bgcReadyAt
		}
		if start >= t {
			return // no idle time left before the next event
		}
		var d time.Duration
		if s.gcRemaining > 0 {
			d = s.gcRemaining
			s.gcRemaining = 0
		} else {
			freed, raw, err := s.ftl.CollectBackgroundOnce()
			if err != nil || freed <= 0 {
				// No collectible victim or no forward progress: drop the
				// remaining demand for this interval.
				s.pendingBGC = 0
				return
			}
			d = s.scale(raw)
			s.pendingBGC -= freed * pageBytes
		}
		if end := start + d; end > t {
			if s.cfg.NonPreemptiveBGC {
				// The chunk cannot be aborted: it overruns the event at t
				// and the device stays busy until it finishes. No further
				// chunk starts before t.
				s.deviceFreeAt = end
				return
			}
			// Preempt: the host request at t proceeds on time; the
			// unfinished collection time resumes in the next idle window.
			s.gcRemaining = end - t
			s.deviceFreeAt = t
		} else {
			s.deviceFreeAt = end
		}
	}
}

// StepRequest services one host request at its absolute arrival time
// r.Time, first running pending background GC in the idle gap before it,
// and returns the request's completion time.
func (s *Simulator) StepRequest(r trace.Request) (time.Duration, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	s.runBGCUntil(r.Time)
	pages := int(r.Pages)
	if err := s.admit(r.Time, r.LPN, pages); err != nil {
		return 0, err
	}
	var done time.Duration
	if r.Kind == trace.BufferedWrite {
		reclaimed, err := s.cache.Write(r.Time, r.LPN, pages)
		if err != nil {
			return 0, err
		}
		done = r.Time + ramLatency
		if len(reclaimed) > 0 {
			// Cache pressure: the writer stalls until the synchronous
			// write-out of the oldest dirty pages completes.
			if err := s.writeBack(reclaimed); err != nil {
				return 0, err
			}
			done = s.deviceFreeAt
		}
	} else {
		var err error
		if done, err = s.serve(r.Time, r.Kind, r.LPN, pages, true); err != nil {
			return 0, err
		}
	}
	s.requests++
	s.lat.Add(done - r.Time)
	if done > s.opsEnd {
		s.opsEnd = done
	}
	s.tr.Request(r.Time, r.Kind.String(), r.LPN, pages, done-r.Time)
	return done, nil
}

// admit advances the clock to t and bounds-checks the page run of the I/O
// arriving then.
func (s *Simulator) admit(t time.Duration, lpn int64, pages int) error {
	s.now = t
	s.ftl.SetNow(t)
	if end := lpn + int64(pages); lpn < 0 || end > s.ftl.UserPages() {
		return fmt.Errorf("%w: lpn %d..%d, capacity %d", ErrTraceBeyondCapacity, lpn, end, s.ftl.UserPages())
	}
	return nil
}

// serve runs the page loop of one Read, DirectWrite or Trim arriving at t
// and returns its completion time. Host requests and maintenance I/O share
// it: both book the same device time and feed the policy their device
// writes (a rebuild target's GC policy must see rebuild traffic to keep up
// with it); host selects the host-side accounting on top — cache-hit and
// direct-page counters, and the policy's direct-write and TRIM kinds.
func (s *Simulator) serve(t time.Duration, kind trace.Kind, lpn int64, pages int, host bool) (time.Duration, error) {
	var d time.Duration // device occupancy; zero means served at RAM speed
	switch kind {
	case trace.Read:
		hits := 0
		for i := 0; i < pages; i++ {
			// A dirty page is served from the page cache at RAM speed;
			// only cache misses touch the device.
			if s.cache.IsDirty(lpn + int64(i)) {
				hits++
				continue
			}
			rd, err := s.ftl.Read(lpn + int64(i))
			if err != nil {
				return 0, err
			}
			d += rd
		}
		if host {
			s.cacheReadHits += int64(hits)
		}
		d = s.scale(d)

	case trace.DirectWrite:
		var fgc time.Duration
		for i := 0; i < pages; i++ {
			wd, wf, err := s.ftl.Write(lpn + int64(i))
			if err != nil {
				return 0, err
			}
			d += wd
			fgc += wf
		}
		if host {
			s.directPages += int64(pages)
		}
		s.observeWrite(int64(pages)*int64(s.ftl.PageSize()), host)
		d = s.scale(d) + fgc

	case trace.Trim:
		// Discards are metadata-only: drop any dirty copies and clear the
		// FTL mapping.
		for i := 0; i < pages; i++ {
			s.cache.Drop(lpn + int64(i))
			if err := s.ftl.Trim(lpn + int64(i)); err != nil {
				return 0, err
			}
		}
		if host {
			s.policy.Observe(trace.Trim, int64(pages)*int64(s.ftl.PageSize()))
		}
	}
	if d == 0 {
		return t + ramLatency, nil
	}
	return s.book(t, d), nil
}

// book queues device work of (already occupancy-scaled) duration d behind
// whatever the device timeline holds at arrival and returns its completion.
func (s *Simulator) book(arrival, d time.Duration) time.Duration {
	s.deviceFreeAt = max(arrival, s.deviceFreeAt) + d
	s.hostBusy += d
	return s.deviceFreeAt
}

// Tick runs the whole write-back boundary at t: flusher, then the policy's
// decision installed unadjusted. Its three phases are public too, so that an
// external driver — the array — can advance several simulators on one clock
// and adjust their GC decisions between TickDecide and TickApply.
func (s *Simulator) Tick(t time.Duration) error {
	if err := s.TickFlush(t); err != nil {
		return err
	}
	s.TickApply(t, s.TickDecide(t))
	return nil
}

// TickFlush runs the first phase of the write-back boundary at t: pending
// background GC executes in the idle gap before t, the previous interval is
// scored, and the cache flusher writes expired pages back.
func (s *Simulator) TickFlush(t time.Duration) error {
	s.runBGCUntil(t)
	s.now = t
	s.ftl.SetNow(t)
	s.acc.Tick()
	s.updateIdleFraction()
	if lpns := s.cache.Flush(t); len(lpns) > 0 {
		return s.writeBack(lpns)
	}
	return nil
}

// TickDecide runs the second phase: the installed policy's decision for
// the interval starting at t.
func (s *Simulator) TickDecide(t time.Duration) core.Decision {
	return s.policy.OnInterval(t, s.pview)
}

// TickApply runs the final phase: install dec (possibly adjusted by the
// driver) as this interval's background GC program. dec.SIP is a change
// against what the previous tick installed, so every TickDecide's has to
// arrive here as decided.
func (s *Simulator) TickApply(t time.Duration, dec core.Decision) {
	free := s.ftl.WritableBytes()
	s.ftl.UpdateSIP(dec.SIP.Reset, dec.SIP.Add, dec.SIP.Drop)
	s.pendingBGC = dec.ReclaimBytes
	s.bgcReadyAt = t
	if s.predictive {
		s.acc.RecordPrediction(dec.PredictedBytes)
	}
	if s.tr.Enabled() {
		st := s.ftl.Stats()
		s.tr.FlushDecision(t, free, dec.ReclaimBytes, dec.PredictedBytes, s.idleFrac)
		s.tr.Snapshot(t, free, s.cache.DirtyPageCount(), st.WAF(),
			st.FGCInvocations, st.BGCCollections, s.requests)
	}
}

// IntervalActuals returns the device write volume (bytes) of each closed
// write-back interval of the run — the series an Oracle policy replays.
func (s *Simulator) IntervalActuals() []int64 { return s.acc.Actuals() }

// DirtyPages returns the number of dirty pages still held by the page
// cache; Pending is the drain condition it implies.
func (s *Simulator) DirtyPages() int { return s.cache.DirtyPageCount() }

// Pending reports whether buffered writes still await a flusher tick.
func (s *Simulator) Pending() bool { return s.cache.DirtyPageCount() > 0 }

// DeviceFreeAt returns the time the device timeline is booked through —
// when the device next falls idle. It is the decoupling point an open-loop
// source needs: a closed-loop host issues a request and implicitly blocks on
// its completion, whereas an open-loop front end (the multi-tenant engine)
// lets arrivals accumulate in its own queues while the device is stalled and
// dispatches the next scheduled request exactly at this instant, so queue
// wait — not think-time suppression — absorbs a mistimed collection.
func (s *Simulator) DeviceFreeAt() time.Duration { return s.deviceFreeAt }

// The maintenance I/O hooks below serve the array's spare rebuilds: shard
// migration shares the device timeline with host traffic (pending
// background GC runs first, the transfer is booked like any other I/O,
// idle-fraction accounting sees the busy time) but is excluded from the
// request count and the latency recorder — maintenance traffic must not
// dilute the host tail.

// RebuildRead services a maintenance read of pages logical pages starting
// at lpn and returns its completion time.
func (s *Simulator) RebuildRead(t time.Duration, lpn int64, pages int) (time.Duration, error) {
	s.runBGCUntil(t)
	return s.maintain(t, trace.Read, lpn, pages)
}

// RebuildWrite services a maintenance write (direct to the FTL, bypassing
// the page cache) and returns its completion time.
func (s *Simulator) RebuildWrite(t time.Duration, lpn int64, pages int) (time.Duration, error) {
	s.runBGCUntil(t)
	return s.maintain(t, trace.DirectWrite, lpn, pages)
}

// RebuildTrim drops the pages' dirty cached copies and FTL mappings.
// Metadata only: the device timeline does not advance, and the policy does
// not see it. The array uses it to apply a discard aimed at a degraded slot
// to that slot's rebuilding spare.
func (s *Simulator) RebuildTrim(t time.Duration, lpn int64, pages int) error {
	_, err := s.maintain(t, trace.Trim, lpn, pages)
	return err
}

func (s *Simulator) maintain(t time.Duration, kind trace.Kind, lpn int64, pages int) (time.Duration, error) {
	if err := s.admit(t, lpn, pages); err != nil {
		return 0, err
	}
	return s.serve(t, kind, lpn, pages, false)
}

// updateIdleFraction folds the last interval's host-driven device
// occupancy into the idle-share estimate policies consult.
func (s *Simulator) updateIdleFraction() {
	period := s.cfg.Cache.FlusherPeriod
	busy := s.hostBusy - s.lastHostBusy
	s.lastHostBusy = s.hostBusy
	frac := 1 - float64(busy)/float64(period)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	const alpha = 0.4
	s.idleFrac = alpha*frac + (1-alpha)*s.idleFrac
}

// writeBack issues flushed cache pages to the FTL at the current time,
// booking the device for the striped programs plus serial foreground-GC
// stalls.
func (s *Simulator) writeBack(lpns []int64) error {
	var d, fgc time.Duration
	for _, lpn := range lpns {
		wd, wf, err := s.ftl.Write(lpn)
		if err != nil {
			return err
		}
		d += wd
		fgc += wf
	}
	s.book(s.now, s.scale(d)+fgc)
	s.bufferedPages += int64(len(lpns))
	s.observeWrite(int64(len(lpns))*int64(s.ftl.PageSize()), false)
	return nil
}

// observeWrite feeds the policy and accuracy accounting with device write
// traffic: a host direct write as trace.DirectWrite, any other as
// trace.BufferedWrite.
func (s *Simulator) observeWrite(bytes int64, direct bool) {
	kind := trace.BufferedWrite
	if direct {
		kind = trace.DirectWrite
	}
	s.policy.Observe(kind, bytes)
	s.acc.AddActual(bytes)
}

// Results assembles the run results accumulated so far. A stepped
// simulator's driver calls it once after the final event.
func (s *Simulator) Results() metrics.Results {
	st := s.ftl.Stats()
	simTime := s.opsEnd
	if s.deviceFreeAt > simTime {
		simTime = s.deviceFreeAt
	}
	res := metrics.Results{
		Policy:           s.policy.Name(),
		Requests:         s.requests,
		SimTime:          simTime,
		WAF:              st.WAF(),
		HostPrograms:     st.HostPrograms,
		GCMigrations:     st.GCMigrations,
		WastedMigrations: st.WastedMigrations,
		Erases:           st.Erases,
		MeanLatency:      s.lat.Mean(),
		P99Latency:       s.lat.Percentile(99),
		MaxLatency:       s.lat.Max(),
		StreamingLatency: s.lat.Streaming(),
		FGCInvocations:   st.FGCInvocations,
		BGCCollections:   st.BGCCollections,
		TrimmedPages:     st.Trims,
		MappedPages:      s.ftl.MappedPages(),
		CacheReadHits:    s.cacheReadHits,
		Predictive:       s.predictive,
		BufferedPages:    s.bufferedPages,
		DirectPages:      s.directPages,
	}
	if s.opsEnd > 0 {
		res.IOPS = float64(s.requests) / s.opsEnd.Seconds()
	}
	if simTime > 0 {
		res.SustainedIOPS = float64(s.requests) / simTime.Seconds()
	}
	if st.VictimSelections > 0 {
		res.FilteredVictimPct = 100 * float64(st.FilteredSelections) / float64(st.VictimSelections)
	}
	if s.predictive {
		res.PredictionAccuracy = s.acc.Mean()
	}
	minE, maxE, _ := s.ftl.Device().WearStats()
	res.MinErase, res.MaxErase = minE, maxE
	if fm := s.ftl.FaultModel(); fm != nil {
		res.InjectedFaults = fm.InjectedTotal()
		res.ProgramFaults = st.ProgramFaults
		res.EraseFaults = st.EraseFaults
		res.ReadRetries = st.ReadRetries
		res.UnrecoverableReads = st.UnrecoverableReads
		res.RetiredBlocks = st.RetiredByFault
	}
	return res
}
