package telemetry

import (
	"testing"
	"time"
)

// emitAll drives every tracer emit helper once. Called with a live tracer
// it must produce one event per helper; called with the nil (disabled)
// tracer it must be a silent no-op — both contracts are pinned below.
func emitAll(tr *Tracer) {
	now := 5 * time.Millisecond
	tr.Request(now, "read", 1, 2, time.Millisecond)
	tr.FlushDecision(now, 1, 2, 3, 0.5)
	tr.GCStart(now, true, 7, 8, 9)
	tr.GCEnd(now, false, 7, 64, time.Millisecond)
	tr.Erase(now, 3, 11, time.Microsecond)
	tr.FaultInjected(now, "program", 3, 1, -1)
	tr.BlockRetired(now, 3, "wear", 100)
	tr.ReadRetry(now, 3, 1, 42, 2, true)
	tr.DeviceDegraded(now, 1, "program fault")
	tr.StripeTorn(now, 1, 64, 16)
	tr.Rebuild(now, 1, ActionStart, 128, time.Second)
	tr.Rebalance(now, 2, ActionEnd, 12, time.Second)
	tr.Token(now, 0, "grant", 1, 2)
	tr.TenantSummary(now, 9, "gold", 100, 1, 2, time.Millisecond)
	tr.Snapshot(now, 1, 2, 1.5, 3, 4, 5)
}

// TestTracerEmitHelpers checks every helper emits exactly one event of its
// type, tagged with the tracer's device where the event is device-scoped.
func TestTracerEmitHelpers(t *testing.T) {
	ring, err := NewRingSink(64)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(ring).WithDevice(3)
	if !tr.Enabled() {
		t.Error("live tracer reports disabled")
	}
	if tr.Sink() != Sink(ring) {
		t.Error("Sink() did not return the backing sink")
	}

	emitAll(tr)
	events := ring.Events()
	want := []EventType{
		EvRequest, EvFlushDecision, EvGCStart, EvGCEnd, EvErase,
		EvFault, EvBlockRetired, EvReadRetry, EvDeviceDegraded,
		EvStripeTorn, EvRebuild, EvRebalance, EvToken,
		EvTenantSummary, EvSnapshot,
	}
	if len(events) != len(want) {
		t.Fatalf("emitted %d events, want %d", len(events), len(want))
	}
	for i, ev := range events {
		if ev.Type != want[i] {
			t.Errorf("event %d type = %q, want %q", i, ev.Type, want[i])
		}
	}
	// Device-scoped helpers carry the tracer's tag; array-level helpers
	// (degraded, torn, rebuild, rebalance, token) carry the member they
	// name instead.
	if events[0].Dev != 3 {
		t.Errorf("request event tagged dev %d, want tracer's 3", events[0].Dev)
	}
	if events[8].Dev != 1 {
		t.Errorf("device_degraded event tagged dev %d, want named member 1", events[8].Dev)
	}
	if events[10].Action != ActionStart {
		t.Errorf("rebuild action = %q, want %q", events[10].Action, ActionStart)
	}
}

// fastSink is a ring that also offers the request fast path, logging what
// arrived through it.
type fastSink struct {
	*RingSink
	requests []Event
}

func (s *fastSink) EmitRequest(now time.Duration, dev int, kind string, lpn int64, pages int, latency time.Duration) {
	s.requests = append(s.requests, Event{Type: EvRequest, T: now, Dev: dev,
		Kind: kind, LPN: lpn, Pages: pages, Latency: latency})
}

// TestTracerRequestFastPath: a sink with EmitRequest gets request
// completions there — device tag included, on tracers derived by WithDevice
// too — and every other event through Emit; a sink without it (here the
// same ring behind a wrapper) gets the identical Event through Emit.
func TestTracerRequestFastPath(t *testing.T) {
	ring, err := NewRingSink(64)
	if err != nil {
		t.Fatal(err)
	}
	fast := &fastSink{RingSink: ring}
	emitAll(New(fast).WithDevice(3))
	if len(fast.requests) != 1 {
		t.Fatalf("%d requests reached EmitRequest, want 1", len(fast.requests))
	}
	for _, ev := range ring.Events() {
		if ev.Type == EvRequest {
			t.Errorf("request reached Emit despite the fast path: %+v", ev)
		}
	}
	if ring.Total() != 14 {
		t.Errorf("Emit saw %d events, want the 14 non-request helpers", ring.Total())
	}

	slow, err := NewRingSink(64)
	if err != nil {
		t.Fatal(err)
	}
	emitAll(New(struct{ Sink }{slow}).WithDevice(3))
	if got := slow.Events()[0]; got != fast.requests[0] {
		t.Errorf("Emit path recorded %+v, fast path %+v", got, fast.requests[0])
	}
}

// TestTracerNilSafe drives every helper through the nil tracer: each must
// be a no-op, and the constructors must collapse to nil.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	emitAll(tr) // must not panic
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	if tr.WithDevice(4) != nil {
		t.Error("nil tracer derived a live device tracer")
	}
	if tr.Sink() != nil {
		t.Error("nil tracer returned a sink")
	}
	if New(nil) != nil {
		t.Error("New(nil) built a live tracer")
	}
}
