package jitgc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"jitgc/internal/telemetry"
	"jitgc/internal/telemetry/binlog"
)

// eventDigest folds events into one SHA-256, every telemetry.Event field in
// struct order, and counts them: two streams with equal digests and counts
// hold the same events in the same order. Strings go in length-prefixed and
// floats by their bits, so -0 and NaN payloads count. As a telemetry.Sink it
// folds what a tracer emits (requests arrive through Emit: it has no
// EmitRequest); it is not locked, so one goroutine, or a Tee, must feed it.
type eventDigest struct {
	h   hash.Hash
	buf []byte
	n   int64
}

func newEventDigest() *eventDigest { return &eventDigest{h: sha256.New()} }

func (d *eventDigest) Emit(ev telemetry.Event) { d.add(&ev) }

func (d *eventDigest) Close() error { return nil }

func (d *eventDigest) add(ev *telemetry.Event) {
	num := func(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
	str := func(b []byte, v string) []byte { return append(num(b, int64(len(v))), v...) }
	float := func(b []byte, v float64) []byte { return num(b, int64(math.Float64bits(v))) }
	boolean := func(b []byte, v bool) []byte {
		if v {
			return append(b, 1)
		}
		return append(b, 0)
	}
	b := d.buf[:0]
	b = str(b, string(ev.Type))
	b = num(b, int64(ev.T))
	b = num(b, int64(ev.Dev))
	b = str(b, ev.Kind)
	b = num(b, ev.LPN)
	b = num(b, int64(ev.Pages))
	b = num(b, int64(ev.Latency))
	b = num(b, ev.FreeBytes)
	b = num(b, ev.ReclaimBytes)
	b = num(b, ev.PredictedBytes)
	b = float(b, ev.IdleFraction)
	b = boolean(b, ev.Foreground)
	b = num(b, int64(ev.Victim))
	b = num(b, int64(ev.ValidPages))
	b = num(b, int64(ev.SIPPages))
	b = num(b, ev.FreedPages)
	b = num(b, int64(ev.Elapsed))
	b = num(b, ev.EraseCount)
	b = str(b, ev.Action)
	b = str(b, ev.Op)
	b = num(b, int64(ev.Page))
	b = num(b, int64(ev.Attempts))
	b = boolean(b, ev.Recovered)
	b = str(b, ev.Reason)
	b = num(b, int64(ev.Tenant))
	b = str(b, ev.Class)
	b = num(b, ev.Dropped)
	b = num(b, ev.Violations)
	b = num(b, int64(ev.DirtyPages))
	b = float(b, ev.WAF)
	b = num(b, ev.FGCInvocations)
	b = num(b, ev.BGCCollections)
	b = num(b, ev.Requests)
	d.h.Write(b)
	d.buf = b
	d.n++
}

// matchBinlog decodes a binlog stream and fails unless it holds exactly the
// events folded into want.
func matchBinlog(stream io.Reader, want *eventDigest) error {
	rd, err := binlog.NewReader(stream)
	if err != nil {
		return fmt.Errorf("open binlog: %w", err)
	}
	got := newEventDigest()
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("decode event %d: %w", got.n, err)
		}
		got.add(&ev)
	}
	if gs, ws := got.h.Sum(nil), want.h.Sum(nil); got.n != want.n || !bytes.Equal(gs, ws) {
		return fmt.Errorf("binlog decodes to %d events (digest %x), the tracer emitted %d (digest %x)", got.n, gs, want.n, ws)
	}
	return nil
}

// TestEventDigestFoldsEveryField: setting any one field of an Event, found
// by reflection so a field added later is covered too, changes the digest,
// and so does a -0 where +0 was.
func TestEventDigestFoldsEveryField(t *testing.T) {
	sum := func(ev telemetry.Event) string {
		d := newEventDigest()
		d.add(&ev)
		return string(d.h.Sum(nil))
	}
	zero := sum(telemetry.Event{})
	ty := reflect.TypeOf(telemetry.Event{})
	for k := 0; k < ty.NumField(); k++ {
		var ev telemetry.Event
		f := reflect.ValueOf(&ev).Elem().Field(k)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(math.Copysign(0, -1))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("field %s: kind %s has no fold", ty.Field(k).Name, f.Kind())
		}
		if sum(ev) == zero {
			t.Errorf("field %s does not reach the digest", ty.Field(k).Name)
		}
	}
}

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

// TestLifetimeEventStreamRoundTrip checks the wear-out event stream (the
// full GC cadence of a device driven to death) the way
// TestExperimentEventStreamsRoundTrip checks the golden runs: the live
// binlog must decode to exactly the events the tracer emitted. One grid
// cell stands in for the lifetime experiment's nine: the cells differ only
// in benchmark and policy, not event vocabulary. The replay runs to
// wear-out, but only the stream's head is recorded — through the first
// appearance of every event type plus one whole binlog block — because the
// half million events after that exercise no field combination the head
// does not; the type sets are compared to prove it.
func TestLifetimeEventStreamRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("wear-out replay; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wear-out replay takes minutes under the race detector")
	}
	var live bytes.Buffer
	emitted := newEventDigest()
	cover := &coveringSink{
		next:    telemetry.Tee(emitted, binlog.NewBinSink(&live, binlog.Options{})),
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
	if emitted.n == 0 {
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
	if cover.stopAt == 0 || emitted.n != cover.stopAt {
		t.Fatalf("recorded %d events, want the stream stopped at %d", emitted.n, cover.stopAt)
	}
	if err := matchBinlog(&live, emitted); err != nil {
		t.Fatal(err)
	}
}
