package sim

import (
	"testing"
	"time"

	"jitgc/internal/metrics"
	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
)

// TestSteppingAPIDrivesDevice exercises the external stepping interface the
// array backend uses: precondition, interleave requests with the three tick
// phases on a driver-owned clock, drain, and collect results.
func TestSteppingAPIDrivesDevice(t *testing.T) {
	cfg := tinyConfig()
	timeline := &metrics.TimelineSink{}
	cfg.Tracer = telemetry.New(timeline)
	cfg.PreconditionPages = 100
	s := newSim(t, cfg, lazyFactory)
	if err := s.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}

	reqs := []trace.Request{
		{Time: 100 * time.Millisecond, Kind: trace.BufferedWrite, LPN: 0, Pages: 8},
		{Time: 200 * time.Millisecond, Kind: trace.DirectWrite, LPN: 64, Pages: 4},
		{Time: 300 * time.Millisecond, Kind: trace.Read, LPN: 0, Pages: 2},
	}
	next := 0
	const ticks = 8 // p = 1 s, τ_expire = 6 s: everything flushes within 8
	for k := 1; k <= ticks; k++ {
		now := time.Duration(k) * time.Second
		for next < len(reqs) && reqs[next].Time < now {
			if _, err := s.StepRequest(reqs[next]); err != nil {
				t.Fatalf("StepRequest(%v): %v", reqs[next], err)
			}
			next++
		}
		if err := s.TickFlush(now); err != nil {
			t.Fatalf("TickFlush(%v): %v", now, err)
		}
		s.TickApply(now, s.TickDecide(now))
	}

	if n := s.DirtyPages(); n != 0 {
		t.Errorf("cache still holds %d dirty pages after expiry", n)
	}
	res := s.Results()
	if res.Requests != int64(len(reqs)) {
		t.Errorf("requests = %d, want %d", res.Requests, len(reqs))
	}
	if res.BufferedPages != 8 || res.DirectPages != 4 {
		t.Errorf("buffered/direct = %d/%d, want 8/4", res.BufferedPages, res.DirectPages)
	}
	if got := len(timeline.Merged()); got != ticks {
		t.Errorf("timeline samples = %d, want %d", got, ticks)
	}
	if got := len(s.IntervalActuals()); got != ticks {
		t.Errorf("interval actuals = %d, want %d", got, ticks)
	}
}

// TestStepRequestValidates ensures malformed requests are rejected at the
// stepping boundary rather than corrupting device state.
func TestStepRequestValidates(t *testing.T) {
	s := newSim(t, tinyConfig(), lazyFactory)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepRequest(trace.Request{Time: -1, Kind: trace.Read, LPN: 0, Pages: 1}); err == nil {
		t.Error("negative-time request accepted")
	}
	if _, err := s.StepRequest(trace.Request{Kind: trace.Read, LPN: 0, Pages: 0}); err == nil {
		t.Error("zero-length request accepted")
	}
}
