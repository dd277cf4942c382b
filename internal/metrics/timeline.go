package metrics

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"time"

	"jitgc/internal/telemetry"
)

// TimelinePoint is one per-write-back-interval sample of simulator state,
// rebuilt from the event stream by TimelineSink. A run's timeline is the
// data behind time-series plots: free-space trajectories under different
// BGC policies, WAF growth, foreground-GC bursts.
type TimelinePoint struct {
	// T is the simulation instant of the sample (a flusher tick).
	T time.Duration
	// FreeBytes is C_free at the tick, before the policy's decision.
	FreeBytes int64
	// DirtyPages is the page-cache dirty set size.
	DirtyPages int
	// WAF is the cumulative write amplification factor so far.
	WAF float64
	// FGCInvocations and BGCCollections are cumulative counters.
	FGCInvocations int64
	BGCCollections int64
	// ReclaimBytes is the policy's D_reclaim request at this tick.
	ReclaimBytes int64
	// PredictedBytes is the policy's C_req forecast at this tick (0 for
	// non-predictive policies).
	PredictedBytes int64
	// IdleFraction is the device idle share estimate at this tick.
	IdleFraction float64
}

// TimelineSink is a telemetry.Sink that rebuilds per-device timelines from
// the event stream: the flush_decision and snapshot a device emits at one
// write-back tick become one TimelinePoint for that (Dev, T). A device's
// events arrive in time order, so a tick's two events meet at the device's
// latest point. Every other event is dropped, and request completions cost
// a no-op call. The zero value is ready to use and safe for concurrent use.
type TimelineSink struct {
	mu  sync.Mutex
	dev map[int][]TimelinePoint
}

// Emit implements telemetry.Sink.
func (s *TimelineSink) Emit(ev telemetry.Event) {
	if ev.Type != telemetry.EvFlushDecision && ev.Type != telemetry.EvSnapshot {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dev == nil {
		s.dev = make(map[int][]TimelinePoint)
	}
	tl := s.dev[ev.Dev]
	if n := len(tl); n == 0 || tl[n-1].T != ev.T {
		tl = append(tl, TimelinePoint{T: ev.T})
	}
	p := &tl[len(tl)-1]
	p.FreeBytes = ev.FreeBytes
	if ev.Type == telemetry.EvFlushDecision {
		p.ReclaimBytes, p.PredictedBytes, p.IdleFraction = ev.ReclaimBytes, ev.PredictedBytes, ev.IdleFraction
	} else {
		p.DirtyPages, p.WAF = ev.DirtyPages, ev.WAF
		p.FGCInvocations, p.BGCCollections = ev.FGCInvocations, ev.BGCCollections
	}
	s.dev[ev.Dev] = tl
}

// EmitRequest is the request fast path telemetry.New looks for: a timeline
// has no use for request completions.
func (s *TimelineSink) EmitRequest(time.Duration, int, string, int64, int, time.Duration) {}

// Close implements telemetry.Sink; the sink holds no external resources.
func (s *TimelineSink) Close() error { return nil }

// PerDevice returns a copy of every reporting device's timeline, keyed by
// the device tag its events carried (array spares included).
func (s *TimelineSink) PerDevice() map[int][]TimelinePoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int][]TimelinePoint, len(s.dev))
	for d, tl := range s.dev {
		out[d] = slices.Clone(tl)
	}
	return out
}

// Merged folds the device timelines into one with a point per tick at which
// any device reported, in time order. Capacities, dirty sets, GC counters,
// reclaim requests and forecasts are summed over the devices that reported
// at that tick; WAF and IdleFraction, per-device ratios with no weights, are
// averaged over them. Devices are added in tag order, so a single device's
// merged timeline is its own.
func (s *TimelineSink) Merged() []TimelinePoint {
	per := s.PerDevice()
	var all []TimelinePoint
	for _, d := range slices.Sorted(maps.Keys(per)) {
		all = append(all, per[d]...)
	}
	// A stable sort keeps each tick's points in tag order.
	slices.SortStableFunc(all, func(a, b TimelinePoint) int { return cmp.Compare(a.T, b.T) })
	var merged []TimelinePoint
	for i := 0; i < len(all); {
		m, n := TimelinePoint{T: all[i].T}, 0
		for ; i < len(all) && all[i].T == m.T; i, n = i+1, n+1 {
			p := all[i]
			m.FreeBytes += p.FreeBytes
			m.DirtyPages += p.DirtyPages
			m.WAF += p.WAF
			m.FGCInvocations += p.FGCInvocations
			m.BGCCollections += p.BGCCollections
			m.ReclaimBytes += p.ReclaimBytes
			m.PredictedBytes += p.PredictedBytes
			m.IdleFraction += p.IdleFraction
		}
		m.WAF /= float64(n)
		m.IdleFraction /= float64(n)
		merged = append(merged, m)
	}
	return merged
}

// WriteTimelineCSV serializes a timeline as CSV with a header row, suitable
// for plotting tools.
func WriteTimelineCSV(w io.Writer, points []TimelinePoint) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t_us,free_bytes,dirty_pages,waf,fgc,bgc,reclaim_bytes,predicted_bytes,idle_fraction"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%.6f,%d,%d,%d,%d,%.4f\n",
			p.T.Microseconds(), p.FreeBytes, p.DirtyPages, p.WAF,
			p.FGCInvocations, p.BGCCollections, p.ReclaimBytes,
			p.PredictedBytes, p.IdleFraction); err != nil {
			return err
		}
	}
	return bw.Flush()
}
