package telemetry

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// emitAll drives every tracer emit helper once, with every argument
// non-zero. Called with a live tracer it must produce one event per helper;
// called with the nil (disabled) tracer it must be a silent no-op — both
// contracts are pinned below.
func emitAll(tr *Tracer) {
	now := 5 * time.Millisecond
	tr.Request(now, "read", 1, 2, time.Millisecond)
	tr.FlushDecision(now, 1, 2, 3, 0.5)
	tr.GCStart(now, true, 7, 8, 9)
	tr.GCEnd(now, true, 7, 64, time.Millisecond)
	tr.Erase(now, 3, 11, time.Microsecond)
	tr.FaultInjected(now, "program", 3, 1, -1)
	tr.BlockRetired(now, 3, "wear", 100)
	tr.ReadRetry(now, 3, 1, 42, 2, true)
	tr.DeviceDegraded(now, 1, "program fault")
	tr.StripeTorn(now, 1, 64, 16)
	tr.Rebuild(now, 1, ActionStart, 128, time.Second)
	tr.Token(now, 2, "grant", 1, 2)
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
		EvStripeTorn, EvRebuild, EvToken,
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
	// (degraded, torn, rebuild, token) carry the member they
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

// TestTracerPopulatesItsFieldSet holds typeFields to the helpers it
// mirrors: given every argument non-zero, each helper's event populates
// exactly its type's field set, read through Event.Field, and every known
// type has a helper.
func TestTracerPopulatesItsFieldSet(t *testing.T) {
	ring, err := NewRingSink(64)
	if err != nil {
		t.Fatal(err)
	}
	emitAll(New(ring).WithDevice(3))
	seen := map[EventType]bool{}
	for _, ev := range ring.Events() {
		var got FieldSet
		for _, col := range Columns {
			if v, s := ev.Field(col.Bit); v != 0 || s != "" {
				got |= col.Bit
			}
		}
		if want, known := Fields(ev.Type); !known || got != want {
			t.Errorf("%s populates %#x, Fields says %#x (known %v)", ev.Type, uint32(got), uint32(want), known)
		}
		seen[ev.Type] = true
	}
	for ty := range typeFields {
		if !seen[ty] {
			t.Errorf("no helper emits %s", ty)
		}
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
	if ring.Total() != 13 {
		t.Errorf("Emit saw %d events, want the 13 non-request helpers", ring.Total())
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

// failCloser is a sink whose Close fails.
type failCloser struct{ Sink }

func (failCloser) Close() error { return errors.New("close failed") }

// TestTee: every sink behind a tee records the whole stream in one order,
// a sink with the request fast path gets completions there and one without
// gets the identical Event, and Close closes every sink, joining errors.
func TestTee(t *testing.T) {
	fastRing, err := NewRingSink(64)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewRingSink(64)
	if err != nil {
		t.Fatal(err)
	}
	fast := &fastSink{RingSink: fastRing}
	tee := Tee(fast, failCloser{slow})
	emitAll(New(tee).WithDevice(3))

	if len(fast.requests) != 1 || fastRing.Total() != 13 {
		t.Fatalf("fast sink: %d requests by EmitRequest, %d events by Emit; want 1 and 13",
			len(fast.requests), fastRing.Total())
	}
	got := slow.Events()
	if len(got) != 14 || got[0] != fast.requests[0] {
		t.Fatalf("slow sink recorded %d events starting %+v; want 14 starting with the fast path's %+v",
			len(got), got[0], fast.requests[0])
	}
	for i, ev := range fastRing.Events() {
		if ev != got[i+1] {
			t.Errorf("event %d: %+v behind one sink, %+v behind the other", i+1, ev, got[i+1])
		}
	}
	if err := tee.Close(); err == nil || err.Error() != "close failed" {
		t.Errorf("Close = %v, want the failing sink's error", err)
	}
}

// lockedFast is a concurrency-safe sink with the request fast path.
type lockedFast struct {
	mu   sync.Mutex
	reqs []Event
}

func (s *lockedFast) Emit(Event)   {}
func (s *lockedFast) Close() error { return nil }
func (s *lockedFast) EmitRequest(now time.Duration, dev int, kind string, lpn int64, pages int, latency time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqs = append(s.reqs, Event{Type: EvRequest, T: now, Dev: dev, LPN: lpn})
}

// TestTeeConcurrentDeviceTags has device tracers over one tee emit requests
// from their own goroutines, as array members in concurrent grid cells do;
// every request must keep its device tag behind both sinks. Run it under
// -race.
func TestTeeConcurrentDeviceTags(t *testing.T) {
	const devs, reqs = 4, 500
	fast := &lockedFast{}
	ring, err := NewRingSink(devs * reqs)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Tee(fast, struct{ Sink }{ring}))
	var wg sync.WaitGroup
	for d := 0; d < devs; d++ {
		wg.Add(1)
		go func(tr *Tracer, d int) {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				tr.Request(time.Duration(i), "W", int64(d), 1, 0)
			}
		}(tr.WithDevice(d), d)
	}
	wg.Wait()
	for name, evs := range map[string][]Event{"fast path": fast.reqs, "Emit": ring.Events()} {
		if len(evs) != devs*reqs {
			t.Fatalf("%s sink recorded %d requests, want %d", name, len(evs), devs*reqs)
		}
		for _, ev := range evs {
			if int64(ev.Dev) != ev.LPN {
				t.Fatalf("%s sink: request from device %d tagged %d", name, ev.LPN, ev.Dev)
			}
		}
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
