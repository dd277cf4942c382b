package jitgc

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"jitgc/internal/telemetry"
	"jitgc/internal/telemetry/binlog"
)

// roundTripStream pushes a recorded JSONL event stream through the binary
// converter both ways and fails unless the round trip reproduces the
// original bytes exactly. It returns the converted binary stream.
func roundTripStream(t *testing.T, jsonl []byte, events int64) []byte {
	t.Helper()
	var bin bytes.Buffer
	n, err := binlog.ToBinary(&bin, bytes.NewReader(jsonl), binlog.Options{})
	if err != nil {
		t.Fatalf("JSONL -> binlog: %v", err)
	}
	if n != events {
		t.Fatalf("converted %d events, sink wrote %d", n, events)
	}
	var back bytes.Buffer
	if _, err := binlog.ToJSONL(&back, bytes.NewReader(bin.Bytes())); err != nil {
		t.Fatalf("binlog -> JSONL: %v", err)
	}
	if !bytes.Equal(jsonl, back.Bytes()) {
		t.Fatalf("round trip not byte-identical for %d events (%d bytes vs %d bytes)",
			n, len(jsonl), back.Len())
	}
	if bin.Len() >= len(jsonl) {
		t.Errorf("binary stream (%d bytes) not smaller than JSONL (%d bytes)", bin.Len(), len(jsonl))
	}
	return bin.Bytes()
}

// teeSink records one run as JSONL and as a live binlog at once, emitting
// to both under one lock so the two streams keep one order. It forwards
// request completions through the binlog's fast path, as a tracer over a
// bare BinSink would.
type teeSink struct {
	mu    sync.Mutex
	jsonl *telemetry.JSONLSink
	bin   *binlog.BinSink
}

func (s *teeSink) Emit(ev telemetry.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jsonl.Emit(ev)
	s.bin.Emit(ev)
}

func (s *teeSink) EmitRequest(now time.Duration, dev int, kind string, lpn int64, pages int, latency time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jsonl.Emit(telemetry.Event{Type: telemetry.EvRequest, T: now, Dev: dev,
		Kind: kind, LPN: lpn, Pages: pages, Latency: latency})
	s.bin.EmitRequest(now, dev, kind, lpn, pages, latency)
}

func (s *teeSink) Close() error { return errors.Join(s.jsonl.Close(), s.bin.Close()) }

// TestExperimentEventStreamsRoundTrip drives every golden experiment with
// a live tracer and round-trips the resulting JSONL event stream through
// the binary converter. The golden sweep locks down the tables; this
// locks down the event streams — every event type and field combination
// the experiments actually emit must survive the columnar format without
// loss. The same run also writes a live binlog (requests through
// BinSink.EmitRequest), which must be byte-identical to the JSONL's
// conversion. Scale is excluded exactly as in the golden sweep (it has no
// golden), and lifetime — whose nine wear-out cells would dominate the
// whole suite — is covered by TestLifetimeEventStreamRoundTrip instead.
func TestExperimentEventStreamsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment serially; skipped in -short")
	}
	if raceEnabled {
		t.Skip("single-goroutine fidelity sweep; the binlog package tests already run under race")
	}
	opt := Options{Seed: 1, Ops: 2000, Workers: 1}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			switch e.ID {
			case "scale":
				t.Skip("no golden: scale reports wall-clock ns/write; its event vocabulary is covered by the other experiments")
			case "lifetime":
				t.Skip("covered by TestLifetimeEventStreamRoundTrip (one wear-out cell instead of nine)")
			}
			var jsonl, live bytes.Buffer
			sink := telemetry.NewJSONLSink(&jsonl)
			tee := &teeSink{jsonl: sink, bin: binlog.NewBinSink(&live, binlog.Options{})}
			expOpt := opt
			expOpt.Tracer = telemetry.New(tee)
			if _, err := e.Run(expOpt); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := tee.Close(); err != nil {
				t.Fatalf("close sink: %v", err)
			}
			if sink.Count() == 0 {
				t.Skipf("%s emits no events at this scale", e.ID)
			}
			converted := roundTripStream(t, jsonl.Bytes(), sink.Count())
			if !bytes.Equal(live.Bytes(), converted) {
				t.Fatalf("live binlog (%d bytes) differs from the JSONL's conversion (%d bytes)", live.Len(), len(converted))
			}
		})
	}
}

// lifetimeEventTypes is the event vocabulary of one full wear-out replay
// (YCSB × JIT-GC to death, 1.48 M events), recorded here once. Wear-out is
// an FTL error, not an event, so the run's last event types — the GC
// bracket and its erase — have all appeared by event 14,639.
var lifetimeEventTypes = []telemetry.EventType{
	telemetry.EvRequest, telemetry.EvFlushDecision, telemetry.EvSnapshot,
	telemetry.EvGCStart, telemetry.EvErase, telemetry.EvGCEnd,
}

// coveringSink forwards events to next until every one of want types has
// passed through and a whole binlog block has been written after the block
// the last of them fell in; from then on it drops them, only noting their
// types, so the test can tell that the prefix it round-trips covers
// everything the full run emits. One goroutine emits (Workers: 1).
type coveringSink struct {
	next      telemetry.Sink
	want      int
	forwarded int64
	stopAt    int64 // forwarded count to stop at; 0 until covered
	covered   map[telemetry.EventType]bool
	all       map[telemetry.EventType]bool
}

func (c *coveringSink) Emit(ev telemetry.Event) {
	c.all[ev.Type] = true
	if c.stopAt > 0 && c.forwarded == c.stopAt {
		return
	}
	c.next.Emit(ev)
	c.forwarded++
	c.covered[ev.Type] = true
	if c.stopAt == 0 && len(c.covered) == c.want {
		c.stopAt = (c.forwarded/binlog.DefaultBlockEvents + 2) * binlog.DefaultBlockEvents
	}
}

func (c *coveringSink) Close() error { return c.next.Close() }

func sortedTypes(set map[telemetry.EventType]bool) []telemetry.EventType {
	types := make([]telemetry.EventType, 0, len(set))
	for ty := range set {
		types = append(types, ty)
	}
	slices.Sort(types)
	return types
}

// TestLifetimeEventStreamRoundTrip round-trips the wear-out event stream
// (the full GC cadence of a device driven to death) through the binary
// converter. One grid cell stands in for the lifetime experiment's nine:
// the cells differ only in benchmark and policy, not event vocabulary. The
// replay runs to wear-out, but only the stream's head is recorded — through
// the first appearance of every event type plus one whole binlog block —
// because the million requests after that exercise no field combination
// the head does not; the type sets are compared to prove it.
func TestLifetimeEventStreamRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("wear-out replay; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wear-out replay takes minutes under the race detector")
	}
	var jsonl bytes.Buffer
	sink := telemetry.NewJSONLSink(&jsonl)
	cover := &coveringSink{
		next:    sink,
		want:    len(lifetimeEventTypes),
		covered: map[telemetry.EventType]bool{},
		all:     map[telemetry.EventType]bool{},
	}
	opt := Options{Seed: 1, Ops: 30000, Workers: 1, Tracer: telemetry.New(cover)}
	if _, err := RunUntilWearOut("YCSB", JIT(), 25, opt); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := cover.Close(); err != nil {
		t.Fatalf("close sink: %v", err)
	}
	if sink.Count() == 0 {
		t.Fatal("wear-out replay emitted no events")
	}
	want := slices.Clone(lifetimeEventTypes)
	slices.Sort(want)
	if all := sortedTypes(cover.all); !slices.Equal(all, want) {
		t.Fatalf("full run emitted types %v, recorded %v: update lifetimeEventTypes", all, want)
	}
	if got := sortedTypes(cover.covered); !slices.Equal(got, want) {
		t.Fatalf("recorded prefix covers types %v of %v", got, want)
	}
	if cover.stopAt == 0 || sink.Count() != cover.stopAt {
		t.Fatalf("recorded %d events, want the stream stopped at %d", sink.Count(), cover.stopAt)
	}
	roundTripStream(t, jsonl.Bytes(), sink.Count())
}
