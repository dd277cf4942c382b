package jitgc

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"jitgc/internal/telemetry"
	"jitgc/internal/telemetry/binlog"
)

// roundTrip is the destination of a JSONL event stream that checks the
// stream survives the binary converter both ways. It feeds the stream to
// binlog.ToBinary as it is written and hashes it, so not even the array
// grid's 90 MB stream is held in memory.
type roundTrip struct {
	pw    *io.PipeWriter
	jsonl digest
	bin   bytes.Buffer
	n     int64 // events converted, valid once done delivers
	done  chan error
}

// newRoundTrip starts the converter. The caller must end the stream with
// check, or close pw if the run that writes it fails.
func newRoundTrip() *roundTrip {
	pr, pw := io.Pipe()
	rt := &roundTrip{pw: pw, jsonl: digest{Hash: sha256.New()}, done: make(chan error, 1)}
	go func() {
		var err error
		rt.n, err = binlog.ToBinary(&rt.bin, pr, binlog.Options{})
		pr.CloseWithError(err) // a failed conversion must not block the writer
		rt.done <- err
	}()
	return rt
}

func (rt *roundTrip) Write(p []byte) (int, error) {
	if _, err := rt.pw.Write(p); err != nil {
		return 0, err
	}
	return rt.jsonl.Write(p)
}

// check ends the stream and reports an error unless it converted to
// exactly events events, converts back to the same bytes, and shrank on
// the way. The binary stream is left in rt.bin.
func (rt *roundTrip) check(events int64) error {
	rt.pw.Close()
	if err := <-rt.done; err != nil {
		return fmt.Errorf("JSONL -> binlog: %w", err)
	}
	if rt.n != events {
		return fmt.Errorf("converted %d events, sink wrote %d", rt.n, events)
	}
	back := digest{Hash: sha256.New()}
	if _, err := binlog.ToJSONL(&back, bytes.NewReader(rt.bin.Bytes())); err != nil {
		return fmt.Errorf("binlog -> JSONL: %w", err)
	}
	if back.n != rt.jsonl.n || !bytes.Equal(back.Sum(nil), rt.jsonl.Sum(nil)) {
		return fmt.Errorf("round trip not byte-identical for %d events (%d bytes vs %d bytes)",
			rt.n, rt.jsonl.n, back.n)
	}
	if int64(rt.bin.Len()) >= rt.jsonl.n {
		return fmt.Errorf("binary stream (%d bytes) not smaller than JSONL (%d bytes)", rt.bin.Len(), rt.jsonl.n)
	}
	return nil
}

// digest hashes what is written to it and counts the bytes.
type digest struct {
	hash.Hash
	n int64
}

func (d *digest) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.Hash.Write(p)
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

// lifetimeEventTypes is the event vocabulary of one full wear-out replay
// (YCSB × JIT-GC to death, 540,555 events), recorded here once. Wear-out is
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
// because the half million events after that exercise no field
// combination the head does not; the type sets are compared to prove it.
func TestLifetimeEventStreamRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("wear-out replay; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wear-out replay takes minutes under the race detector")
	}
	rt := newRoundTrip()
	defer rt.pw.Close()
	sink := telemetry.NewJSONLSink(rt)
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
	if err := rt.check(sink.Count()); err != nil {
		t.Fatal(err)
	}
}
