package telemetry

import "time"

// Tracer is the front end the simulator stack holds: a thin, device-tagged
// handle over a shared Sink. The nil *Tracer is the disabled state — every
// emit helper begins with a nil check and returns immediately, so callers
// wire hooks unconditionally into hot paths and pay one pointer comparison
// when tracing is off.
//
// Tracers are immutable; WithDevice derives tagged handles for array
// members that share the parent's sink.
type Tracer struct {
	sink Sink
	req  requestSink // sink's request fast path; nil when it has none
	dev  int
}

// requestSink is the optional fast path a Sink may offer for request
// completions, the one event a run emits per host request: the sink takes
// the fields as arguments instead of a whole Event. It must record exactly
// what Emit would for the equivalent EvRequest Event.
type requestSink interface {
	EmitRequest(now time.Duration, dev int, kind string, lpn int64, pages int, latency time.Duration)
}

// New builds a tracer emitting to sink. A nil sink yields a nil (disabled)
// tracer.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	req, _ := sink.(requestSink)
	return &Tracer{sink: sink, req: req}
}

// Enabled reports whether the tracer emits events.
func (t *Tracer) Enabled() bool { return t != nil }

// WithDevice derives a tracer that tags every event with array member
// index dev, sharing the receiver's sink.
func (t *Tracer) WithDevice(dev int) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{sink: t.sink, req: t.req, dev: dev}
}

// Sink returns the underlying sink (nil for a disabled tracer), so the
// owner of the CLI lifecycle can flush and close it.
func (t *Tracer) Sink() Sink {
	if t == nil {
		return nil
	}
	return t.sink
}

// Request emits a host request completion.
func (t *Tracer) Request(now time.Duration, kind string, lpn int64, pages int, latency time.Duration) {
	if t == nil {
		return
	}
	if t.req != nil {
		t.req.EmitRequest(now, t.dev, kind, lpn, pages, latency)
		return
	}
	t.sink.Emit(Event{Type: EvRequest, T: now, Dev: t.dev,
		Kind: kind, LPN: lpn, Pages: pages, Latency: latency})
}

// FlushDecision emits the per-tick BGC policy decision.
func (t *Tracer) FlushDecision(now time.Duration, freeBytes, reclaimBytes, predictedBytes int64, idleFraction float64) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvFlushDecision, T: now, Dev: t.dev,
		FreeBytes: freeBytes, ReclaimBytes: reclaimBytes,
		PredictedBytes: predictedBytes, IdleFraction: idleFraction})
}

// GCStart emits the start of one victim collection.
func (t *Tracer) GCStart(now time.Duration, foreground bool, victim, validPages, sipPages int) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvGCStart, T: now, Dev: t.dev,
		Foreground: foreground, Victim: victim, ValidPages: validPages, SIPPages: sipPages})
}

// GCEnd emits the end of one victim collection with what it achieved.
func (t *Tracer) GCEnd(now time.Duration, foreground bool, victim int, freedPages int64, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvGCEnd, T: now, Dev: t.dev,
		Foreground: foreground, Victim: victim, FreedPages: freedPages, Elapsed: elapsed})
}

// Erase emits one block erase.
func (t *Tracer) Erase(now time.Duration, block int, eraseCount int64, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvErase, T: now, Dev: t.dev,
		Victim: block, EraseCount: eraseCount, Elapsed: elapsed})
}

// FaultInjected emits one injected NAND operation failure. Pass lpn -1
// when no logical page is involved (erases, GC-internal programs).
func (t *Tracer) FaultInjected(now time.Duration, op string, block, page int, lpn int64) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvFault, T: now, Dev: t.dev,
		Op: op, Victim: block, Page: page, LPN: lpn})
}

// BlockRetired emits a block retirement by a recovery policy.
func (t *Tracer) BlockRetired(now time.Duration, block int, reason string, eraseCount int64) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvBlockRetired, T: now, Dev: t.dev,
		Victim: block, Reason: reason, EraseCount: eraseCount})
}

// ReadRetry emits the outcome of one read-recovery episode: attempts
// retries were spent and recovered tells whether the data came back.
func (t *Tracer) ReadRetry(now time.Duration, block, page int, lpn int64, attempts int, recovered bool) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvReadRetry, T: now, Dev: t.dev,
		Victim: block, Page: page, LPN: lpn, Attempts: attempts, Recovered: recovered})
}

// DeviceDegraded emits an array member entering degraded mode.
func (t *Tracer) DeviceDegraded(now time.Duration, dev int, reason string) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvDeviceDegraded, T: now, Dev: dev, Reason: reason})
}

// StripeTorn emits a partial stripe write: the striped request covering
// [lpn, lpn+pages) failed on member dev after earlier segments had landed
// on the survivors.
func (t *Tracer) StripeTorn(now time.Duration, dev int, lpn int64, pages int) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvStripeTorn, T: now, Dev: dev, LPN: lpn, Pages: pages})
}

// Rebuild emits one spare-rebuild lifecycle edge for the member slot dev:
// action is ActionStart/ActionEnd/ActionAbort, pages the pages migrated so
// far, elapsed the rebuild's running time.
func (t *Tracer) Rebuild(now time.Duration, dev int, action string, pages int64, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvRebuild, T: now, Dev: dev,
		Action: action, FreedPages: pages, Elapsed: elapsed})
}

// Rebalance emits one online-reshape lifecycle edge after device addition:
// dev is the first added device, stripes the stripes relocated so far,
// elapsed the reshape's running time.
func (t *Tracer) Rebalance(now time.Duration, dev int, action string, stripes int64, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvRebalance, T: now, Dev: dev,
		Action: action, FreedPages: stripes, Elapsed: elapsed})
}

// Token emits one array GC-coordination hand-off decision for member dev.
func (t *Tracer) Token(now time.Duration, dev int, action string, reclaimBytes, freeBytes int64) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvToken, T: now, Dev: dev,
		Action: action, ReclaimBytes: reclaimBytes, FreeBytes: freeBytes})
}

// TenantSummary emits one tenant's end-of-run verdict in a multi-tenant
// run: p99.9 latency rides the Latency field, completions the Requests
// field.
func (t *Tracer) TenantSummary(now time.Duration, tenant int, class string, completed, dropped, violations int64, p999 time.Duration) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvTenantSummary, T: now, Dev: t.dev,
		Tenant: tenant, Class: class, Requests: completed,
		Dropped: dropped, Violations: violations, Latency: p999})
}

// Snapshot emits the periodic per-device stats snapshot.
func (t *Tracer) Snapshot(now time.Duration, freeBytes int64, dirtyPages int, waf float64, fgc, bgc, requests int64) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Type: EvSnapshot, T: now, Dev: t.dev,
		FreeBytes: freeBytes, DirtyPages: dirtyPages, WAF: waf,
		FGCInvocations: fgc, BGCCollections: bgc, Requests: requests})
}
