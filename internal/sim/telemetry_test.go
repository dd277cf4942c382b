package sim

import (
	"testing"
	"time"

	"jitgc/internal/metrics"
	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
)

// mixedStream builds a deterministic closed-loop request mix that crosses
// many write-back intervals and forces GC.
func mixedStream(n int, span int64) []trace.Request {
	reqs := make([]trace.Request, 0, n)
	for i := 0; i < n; i++ {
		lpn := (int64(i) * 37) % (span - 16)
		r := trace.Request{
			Time: time.Duration(i%5) * time.Millisecond,
			LPN:  lpn, Pages: 8, Kind: trace.BufferedWrite,
		}
		switch i % 7 {
		case 0:
			r.Kind, r.Pages = trace.Read, 4
		case 3:
			r.Kind, r.Pages = trace.DirectWrite, 2
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// TestTracerEmitsSimulationEvents runs a GC-heavy workload with a ring
// tracer attached and checks that every per-device event type appears with
// sane fields.
func TestTracerEmitsSimulationEvents(t *testing.T) {
	ring, err := telemetry.NewRingSink(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.PreconditionPages = 256
	cfg.Tracer = telemetry.New(ring)
	s := newSim(t, cfg, lazyFactory)
	reqs := mixedStream(800, s.FTL().UserPages())
	res, err := s.RunClosedLoop(reqs)
	if err != nil {
		t.Fatal(err)
	}

	byType := map[telemetry.EventType][]telemetry.Event{}
	for _, ev := range ring.Events() {
		byType[ev.Type] = append(byType[ev.Type], ev)
	}
	if n := len(byType[telemetry.EvRequest]); n != len(reqs) {
		t.Errorf("%d request events, want %d", n, len(reqs))
	}
	for _, ev := range byType[telemetry.EvRequest] {
		if ev.Kind == "" || ev.Latency < 0 {
			t.Fatalf("malformed request event: %+v", ev)
		}
	}
	if len(byType[telemetry.EvFlushDecision]) == 0 {
		t.Error("no flush_decision events")
	}
	if len(byType[telemetry.EvSnapshot]) != len(byType[telemetry.EvFlushDecision]) {
		t.Errorf("%d snapshots vs %d flush decisions, want equal",
			len(byType[telemetry.EvSnapshot]), len(byType[telemetry.EvFlushDecision]))
	}
	if res.BGCCollections+res.FGCInvocations > 0 {
		starts, ends := byType[telemetry.EvGCStart], byType[telemetry.EvGCEnd]
		if len(starts) == 0 || len(starts) != len(ends) {
			t.Errorf("%d gc_start vs %d gc_end events", len(starts), len(ends))
		}
		// Every gc_start must be closed by a gc_end before the next
		// collection begins: in stream order the balance alternates
		// 0→1→0 and never goes negative or above one (collections on a
		// single device cannot nest).
		open := 0
		for _, ev := range ring.Events() {
			switch ev.Type {
			case telemetry.EvGCStart:
				open++
				if open > 1 {
					t.Fatal("nested gc_start without intervening gc_end")
				}
			case telemetry.EvGCEnd:
				open--
				if open < 0 {
					t.Fatal("gc_end without matching gc_start")
				}
			}
		}
		if open != 0 {
			t.Errorf("%d gc_start events left unclosed at end of run", open)
		}
	}
	if res.Erases > 0 {
		if n := int64(len(byType[telemetry.EvErase])); n != res.Erases {
			t.Errorf("%d erase events, want %d (the erase counter)", n, res.Erases)
		}
	}
	// Snapshots carry cumulative counters; the last one must be consistent
	// with the final result record.
	snaps := byType[telemetry.EvSnapshot]
	last := snaps[len(snaps)-1]
	if last.WAF > res.WAF+1e-9 {
		t.Errorf("last snapshot WAF %v exceeds final %v", last.WAF, res.WAF)
	}
}

// TestStreamingLatencyParity is the acceptance check: the same deterministic
// run under the streaming recorder reports a p99 within one log-bucket of
// the exact order statistic.
func TestStreamingLatencyParity(t *testing.T) {
	run := func(streaming bool) (metrics.Results, *Simulator) {
		cfg := tinyConfig()
		cfg.PreconditionPages = 256
		cfg.StreamingLatency = streaming
		s := newSim(t, cfg, lazyFactory)
		res, err := s.RunClosedLoop(mixedStream(1500, s.FTL().UserPages()))
		if err != nil {
			t.Fatal(err)
		}
		return res, s
	}
	exact, _ := run(false)
	stream, ss := run(true)

	if !ss.lat.Streaming() {
		t.Error("streaming run recorded exactly")
	}
	if stream.Requests != exact.Requests || stream.WAF != exact.WAF || stream.IOPS != exact.IOPS {
		t.Errorf("non-latency results diverged: %+v vs %+v", stream, exact)
	}
	if stream.MeanLatency != exact.MeanLatency || stream.MaxLatency != exact.MaxLatency {
		t.Errorf("mean/max diverged: %v/%v vs %v/%v",
			stream.MeanLatency, stream.MaxLatency, exact.MeanLatency, exact.MaxLatency)
	}
	tol := time.Duration(ss.lat.Hist().WidthAt(int64(exact.P99Latency)))
	if d := stream.P99Latency - exact.P99Latency; d < 0 || d > tol {
		t.Errorf("p99 %v vs exact %v: off by %v, tolerance one bucket = %v",
			stream.P99Latency, exact.P99Latency, d, tol)
	}
}

func TestSustainedIOPS(t *testing.T) {
	cfg := tinyConfig()
	cfg.PreconditionPages = 256
	s := newSim(t, cfg, lazyFactory)
	res, err := s.RunClosedLoop(mixedStream(600, s.FTL().UserPages()))
	if err != nil {
		t.Fatal(err)
	}
	if res.SustainedIOPS <= 0 {
		t.Fatalf("SustainedIOPS = %v", res.SustainedIOPS)
	}
	// IOPS divides by the last host completion, SustainedIOPS by the full
	// simulated time including trailing overrun — so it can only be lower.
	if res.SustainedIOPS > res.IOPS+1e-9 {
		t.Errorf("SustainedIOPS %v > IOPS %v", res.SustainedIOPS, res.IOPS)
	}
	want := float64(res.Requests) / res.SimTime.Seconds()
	if diff := res.SustainedIOPS - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("SustainedIOPS = %v, want Requests/SimTime = %v", res.SustainedIOPS, want)
	}
}
