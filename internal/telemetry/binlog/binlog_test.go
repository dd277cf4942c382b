package binlog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
)

// encodeAll runs evs through a Writer and returns the stream bytes.
func encodeAll(t *testing.T, evs []telemetry.Event, opts Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, opts)
	for i, ev := range evs {
		if err := w.WriteEvent(ev); err != nil {
			t.Fatalf("WriteEvent %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTripMix(t *testing.T) {
	for _, opts := range []Options{
		{},
		{BlockEvents: 7},
		{BlockEvents: 64, Level: 6},
		{BlockEvents: 64, Level: StoreUncompressed},
	} {
		t.Run(fmt.Sprintf("block=%d/level=%d", opts.BlockEvents, opts.Level), func(t *testing.T) {
			want := recordedMix(1000, 42)
			got, err := Decode(bytes.NewReader(encodeAll(t, want, opts)))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d events decoded, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("event %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestRoundTripEmptyStream(t *testing.T) {
	got, err := Decode(bytes.NewReader(encodeAll(t, nil, Options{})))
	if err != nil {
		t.Fatalf("Decode empty stream: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("%d events from empty stream", len(got))
	}
}

// TestJSONLByteIdentity is the converter contract: a JSONL stream written
// by telemetry.JSONLSink, converted to binary and back, reproduces the
// original bytes exactly.
func TestJSONLByteIdentity(t *testing.T) {
	evs := recordedMix(2000, 7)
	var jsonl bytes.Buffer
	sink := telemetry.NewJSONLSink(&jsonl)
	for _, ev := range evs {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var bin bytes.Buffer
	n, err := ToBinary(&bin, bytes.NewReader(jsonl.Bytes()), Options{BlockEvents: 256})
	if err != nil {
		t.Fatalf("ToBinary: %v", err)
	}
	if n != int64(len(evs)) {
		t.Fatalf("ToBinary converted %d events, want %d", n, len(evs))
	}
	if bin.Len()*5 > jsonl.Len() {
		t.Errorf("binary %d B is not at least 5x smaller than JSONL %d B", bin.Len(), jsonl.Len())
	}

	var back bytes.Buffer
	if _, err := ToJSONL(&back, bytes.NewReader(bin.Bytes())); err != nil {
		t.Fatalf("ToJSONL: %v", err)
	}
	if !bytes.Equal(back.Bytes(), jsonl.Bytes()) {
		t.Fatalf("JSONL -> binary -> JSONL is not byte-identical:\nfirst divergence near %d", firstDiff(jsonl.Bytes(), back.Bytes()))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// quickEvents adapts testing/quick to the event union: a batch of random
// events, each drawn as a random type with every populated-field
// combination of that type's field set (zeros included), random negative
// ints, awkward strings, and finite random floats.
type quickEvents []telemetry.Event

var quickTypes = []telemetry.EventType{
	telemetry.EvRequest, telemetry.EvFlushDecision, telemetry.EvGCStart, telemetry.EvGCEnd,
	telemetry.EvErase, telemetry.EvToken, telemetry.EvSnapshot, telemetry.EvFault,
	telemetry.EvBlockRetired, telemetry.EvReadRetry, telemetry.EvDeviceDegraded, telemetry.EvTenantSummary,
	telemetry.EvStripeTorn, telemetry.EvRebuild, telemetry.EvRebalance,
}

var quickStrings = []string{"", "R", "grant", "read-retry", "a\"b\\c\n", "µs/θ", strings.Repeat("x", 300)}

func (quickEvents) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size+1) + 1
	evs := make(quickEvents, n)
	t := time.Duration(rng.Int63n(int64(time.Hour)))
	for i := range evs {
		ty := quickTypes[rng.Intn(len(quickTypes))]
		set, _ := telemetry.Fields(ty)
		ev := telemetry.Event{Type: ty, T: t}
		t += time.Duration(rng.Int63n(int64(time.Second)))
		populate := func(bit telemetry.FieldSet) bool {
			// Half the fields stay zero: the round trip must not depend on
			// every in-set field being populated.
			return set&bit != 0 && rng.Intn(2) == 0
		}
		ri := func() int64 {
			v := rng.Int63n(1 << 40)
			if rng.Intn(4) == 0 {
				v = -v
			}
			return v
		}
		rs := func() string { return quickStrings[rng.Intn(len(quickStrings))] }
		rf := func() float64 { return math.Trunc(rng.NormFloat64()*1e6) / 1e3 }
		for c := range intCols {
			if populate(intCols[c].bit) {
				intCols[c].set(&ev, ri())
			}
		}
		for c := range strCols {
			if populate(strCols[c].bit) {
				strCols[c].set(&ev, rs())
			}
		}
		for c := range boolCols {
			if populate(boolCols[c].bit) {
				boolCols[c].set(&ev, true)
			}
		}
		for c := range floatCols {
			if populate(floatCols[c].bit) {
				floatCols[c].set(&ev, rf())
			}
		}
		evs[i] = ev
	}
	return reflect.ValueOf(evs)
}

// TestQuickJSONLBinaryJSONL drives randomized event batches through
// JSONL → binary → JSONL and demands byte identity, with small blocks so
// every batch spans several.
func TestQuickJSONLBinaryJSONL(t *testing.T) {
	f := func(evs quickEvents) bool {
		var jsonl bytes.Buffer
		sink := telemetry.NewJSONLSink(&jsonl)
		for _, ev := range evs {
			sink.Emit(ev)
		}
		if err := sink.Close(); err != nil {
			t.Logf("JSONLSink: %v", err)
			return false
		}
		var bin, back bytes.Buffer
		if _, err := ToBinary(&bin, bytes.NewReader(jsonl.Bytes()), Options{BlockEvents: 16}); err != nil {
			t.Logf("ToBinary: %v", err)
			return false
		}
		if _, err := ToJSONL(&back, bytes.NewReader(bin.Bytes())); err != nil {
			t.Logf("ToJSONL: %v", err)
			return false
		}
		if !bytes.Equal(back.Bytes(), jsonl.Bytes()) {
			t.Logf("divergence near byte %d of %d", firstDiff(jsonl.Bytes(), back.Bytes()), jsonl.Len())
			return false
		}
		// And the decoded events match the in-memory originals.
		got, err := Decode(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Logf("Decode: %v", err)
			return false
		}
		return reflect.DeepEqual([]telemetry.Event(evs), got)
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestFloatSpecialValues pushes NaN and infinities through the Gorilla
// column directly (JSON cannot carry them, the binary format can).
func TestFloatSpecialValues(t *testing.T) {
	vals := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 1.25, 1.25, math.MaxFloat64, math.SmallestNonzeroFloat64}
	evs := make([]telemetry.Event, len(vals))
	for i, v := range vals {
		evs[i] = telemetry.Event{Type: telemetry.EvSnapshot, T: time.Duration(i), WAF: v, IdleFraction: 0}
	}
	got, err := Decode(bytes.NewReader(encodeAll(t, evs, Options{BlockEvents: 4})))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		g := got[i].WAF
		if math.IsNaN(v) != math.IsNaN(g) || (!math.IsNaN(v) && math.Float64bits(v) != math.Float64bits(g)) {
			t.Errorf("value %d: got %v (bits %#x), want %v (bits %#x)", i, g, math.Float64bits(g), v, math.Float64bits(v))
		}
	}
}

// TestTruncatedStream cuts a valid stream at every interesting boundary
// and requires a loud error — truncation must never read as a clean,
// shorter trace.
func TestTruncatedStream(t *testing.T) {
	evs := recordedMix(300, 3)
	full := encodeAll(t, evs, Options{BlockEvents: 64})
	for _, cut := range []int{2, len(fileMagic), len(fileMagic) + 3, len(full) / 3, len(full) / 2, len(full) - 9, len(full) - 1} {
		got, err := Decode(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Errorf("cut at %d of %d accepted with %d events", cut, len(full), len(got))
			continue
		}
		// Whatever was decoded before the error must be a faithful prefix.
		for i := range got {
			if !reflect.DeepEqual(got[i], evs[i]) {
				t.Errorf("cut at %d: event %d is garbage:\n got %+v\nwant %+v", cut, i, got[i], evs[i])
				break
			}
		}
	}
}

// TestCorruptBlock flips bytes inside block payloads (both compressed and
// stored) and requires the damage to be detected, not decoded.
func TestCorruptBlock(t *testing.T) {
	evs := recordedMix(300, 5)
	for _, opts := range []Options{{BlockEvents: 64}, {BlockEvents: 64, Level: StoreUncompressed}} {
		full := encodeAll(t, evs, opts)
		for _, pos := range []int{len(fileMagic) + 12, len(full) / 2, len(full) - 20} {
			mut := bytes.Clone(full)
			mut[pos] ^= 0x40
			got, err := Decode(bytes.NewReader(mut))
			if err == nil {
				// A flip confined to one event's value would be silent only
				// if CRC were skipped; require detection.
				if reflect.DeepEqual(got, evs) {
					t.Errorf("level=%d: flip at %d silently ignored", opts.Level, pos)
				} else {
					t.Errorf("level=%d: flip at %d decoded %d garbage events without error", opts.Level, pos, len(got))
				}
			}
			for i := range got {
				if i < len(evs) && !reflect.DeepEqual(got[i], evs[i]) {
					t.Errorf("level=%d: flip at %d returned corrupt event %d before the error", opts.Level, pos, i)
					break
				}
			}
		}
	}
}

func TestBadMagicAndTrailingData(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"type":"erase","t_ns":1}` + "\n")); err == nil {
		t.Error("JSONL accepted as binlog")
	}
	if _, err := Decode(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	full := encodeAll(t, recordedMix(10, 1), Options{})
	if _, err := Decode(bytes.NewReader(append(bytes.Clone(full), 'x'))); err == nil {
		t.Error("data after footer accepted")
	}
}

func TestWriterRejectsUnrepresentable(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	// An erase event never carries a tenant class.
	err := w.WriteEvent(telemetry.Event{Type: telemetry.EvErase, T: 1, Class: "gold"})
	if err == nil || !strings.Contains(err.Error(), "class") {
		t.Fatalf("unrepresentable event accepted (err=%v)", err)
	}
	if werr := w.WriteEvent(telemetry.Event{Type: telemetry.EvErase, T: 2}); werr != err {
		t.Errorf("sticky error not preserved: %v", werr)
	}
}

// TestUnknownTypePreserved: events of unknown type carry every field, so
// forward-compatible streams survive the round trip too.
func TestUnknownTypePreserved(t *testing.T) {
	ev := telemetry.Event{Type: "future_event", T: 17, Dev: 3, Kind: "z", LPN: -9,
		IdleFraction: 0.5, Foreground: true, Requests: 11}
	got, err := Decode(bytes.NewReader(encodeAll(t, []telemetry.Event{ev}, Options{})))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []telemetry.Event{ev}) {
		t.Errorf("unknown type round trip:\n got %+v\nwant %+v", got, ev)
	}
}

func TestSeekReader(t *testing.T) {
	evs := recordedMix(1000, 11)
	data := encodeAll(t, evs, Options{BlockEvents: 100})

	idx, err := ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if len(idx) != 10 {
		t.Fatalf("%d index entries, want 10", len(idx))
	}
	var total int64
	for i, e := range idx {
		total += e.Events
		if e.FirstT > e.LastT {
			t.Errorf("block %d: firstT %v after lastT %v", i, e.FirstT, e.LastT)
		}
		if i > 0 && e.Offset <= idx[i-1].Offset {
			t.Errorf("block %d: offset %d not after %d", i, e.Offset, idx[i-1].Offset)
		}
	}
	if total != int64(len(evs)) {
		t.Errorf("index counts %d events, want %d", total, len(evs))
	}

	sr, err := NewSeekReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewSeekReader: %v", err)
	}
	for _, target := range []time.Duration{0, evs[1].T, evs[500].T, evs[999].T, evs[999].T + time.Hour} {
		if err := sr.Seek(target); err != nil {
			t.Fatalf("Seek(%v): %v", target, err)
		}
		// The expected first event: first in file order with T >= target.
		wantIdx := -1
		for i, ev := range evs {
			if ev.T >= target {
				wantIdx = i
				break
			}
		}
		ev, err := sr.Next()
		if wantIdx == -1 {
			if err != io.EOF {
				t.Errorf("Seek(%v) past end: Next = %+v, %v; want EOF", target, ev, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Seek(%v): Next: %v", target, err)
			continue
		}
		if !reflect.DeepEqual(ev, evs[wantIdx]) {
			t.Errorf("Seek(%v) landed on %+v, want event %d %+v", target, ev, wantIdx, evs[wantIdx])
		}
	}

	// A full drain from Seek(0) yields the whole stream.
	if err := sr.Seek(0); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		n++
	}
	if n != len(evs) {
		t.Errorf("drained %d events, want %d", n, len(evs))
	}
}

func TestMergerAcrossMembers(t *testing.T) {
	// Three members with strictly interleaved clocks, merged by T with
	// source order breaking ties.
	var streams [][]byte
	var all []telemetry.Event
	for dev := 0; dev < 3; dev++ {
		var evs []telemetry.Event
		for i := 0; i < 50; i++ {
			evs = append(evs, telemetry.Event{Type: telemetry.EvErase, T: time.Duration(i*3 + dev), Dev: dev, Victim: i})
		}
		all = append(all, evs...)
		streams = append(streams, encodeAll(t, evs, Options{BlockEvents: 16}))
	}
	var srcs []EventSource
	for _, s := range streams {
		r, err := NewReader(bytes.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, r)
	}
	m := NewMerger(srcs...)
	var got []telemetry.Event
	for {
		ev, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		got = append(got, ev)
	}
	if len(got) != len(all) {
		t.Fatalf("merged %d events, want %d", len(got), len(all))
	}
	for i := 1; i < len(got); i++ {
		if got[i].T < got[i-1].T {
			t.Fatalf("merge out of order at %d: %v after %v", i, got[i].T, got[i-1].T)
		}
	}
	for i := range got {
		if int(got[i].T) != i {
			t.Fatalf("merged event %d has T=%d, want %d", i, got[i].T, i)
		}
	}
}

func TestRequestsRoundTrip(t *testing.T) {
	reqs := []trace.Request{
		{Time: 0, Kind: trace.Read, LPN: 0, Pages: 1},
		{Time: 5 * time.Microsecond, Kind: trace.BufferedWrite, LPN: 42, Pages: 8},
		{Time: 5 * time.Microsecond, Kind: trace.DirectWrite, LPN: 1 << 30, Pages: 64},
		{Time: time.Second, Kind: trace.Trim, LPN: 7, Pages: 128},
	}
	var buf bytes.Buffer
	if err := EncodeRequests(&buf, reqs, Options{}); err != nil {
		t.Fatalf("EncodeRequests: %v", err)
	}
	got, err := DecodeRequests(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeRequests: %v", err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, reqs)
	}
	if !IsBinary(buf.Bytes()) {
		t.Error("IsBinary rejects an encoded request stream")
	}
	if IsBinary([]byte("# jitgc trace v2")) {
		t.Error("IsBinary accepts a text trace")
	}

	// Invalid requests are rejected on both sides.
	if err := EncodeRequests(io.Discard, []trace.Request{{Time: -1, Kind: trace.Read, Pages: 1}}, Options{}); err == nil {
		t.Error("negative-time request encoded")
	}
	evBuf := encodeAll(t, []telemetry.Event{{Type: telemetry.EvErase, T: 1}}, Options{})
	if _, err := DecodeRequests(bytes.NewReader(evBuf)); err == nil {
		t.Error("non-request event stream decoded as a trace")
	}
}

func TestBinSinkConcurrentAndClose(t *testing.T) {
	var buf bytes.Buffer
	s := NewBinSink(&buf, Options{BlockEvents: 64})
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if w%2 == 0 { // half the workers take the request fast path
					s.EmitRequest(time.Duration(w*per+i), 0, "R", 0, 1, 0)
					continue
				}
				s.Emit(telemetry.Event{Type: telemetry.EvRequest, T: time.Duration(w*per + i), Kind: "R", Pages: 1})
			}
		}(w)
	}
	wg.Wait()
	if s.Count() != workers*per {
		t.Errorf("Count = %d, want %d", s.Count(), workers*per)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	s.Emit(telemetry.Event{Type: telemetry.EvErase, T: 1})
	if err := s.Close(); !errors.Is(err, telemetry.ErrClosedSink) {
		t.Errorf("Close after emit-after-close = %v, want ErrClosedSink", err)
	}

	evs, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(evs) != workers*per {
		t.Errorf("%d events decoded, want %d", len(evs), workers*per)
	}
}

// TestBinSinkEmitZeroAllocs pins the steady-state emit path (no block
// flush) at zero allocations, the same discipline as the FTL write path.
func TestBinSinkEmitZeroAllocs(t *testing.T) {
	s := NewBinSink(io.Discard, Options{BlockEvents: 1 << 20})
	ev := telemetry.Event{Type: telemetry.EvRequest, T: 1, Kind: "W", LPN: 42, Pages: 8, Latency: 100}
	if allocs := testing.AllocsPerRun(1000, func() { s.Emit(ev) }); allocs != 0 {
		t.Errorf("Emit allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestTracerRequestZeroAllocs pins the traced request path — Tracer.Request
// into a BinSink through EmitRequest, blocks flushing every 64 events — at
// zero allocations per request.
func TestTracerRequestZeroAllocs(t *testing.T) {
	tr := telemetry.New(NewBinSink(io.Discard, Options{BlockEvents: 64})).WithDevice(2)
	now := time.Duration(0)
	request := func() {
		now += 3 * time.Microsecond
		tr.Request(now, "W", int64(now)%4096, 8, 2*time.Microsecond)
	}
	for i := 0; i < 1<<16; i++ { // warm the column buffers and the block index
		request()
	}
	if allocs := testing.AllocsPerRun(4096, request); allocs != 0 {
		t.Errorf("Tracer.Request into a BinSink allocates %.2f/op, want 0", allocs)
	}
}

// emitOnly hides every method of the wrapped sink but the Sink interface,
// as a wrapper sink without a request fast path does.
type emitOnly struct{ telemetry.Sink }

// TestRequestFastPathMatchesEmit: a tracer over a BinSink sends requests
// through EmitRequest, a tracer over a wrapper without it through Emit, and
// the two streams — device tags, other event types and block flushes
// included — are the same bytes.
func TestRequestFastPathMatchesEmit(t *testing.T) {
	drive := func(sink telemetry.Sink) {
		tr := telemetry.New(sink)
		member := tr.WithDevice(3)
		for i := 0; i < 500; i++ {
			now := time.Duration(i) * time.Microsecond
			tr.Request(now, "R", int64(i), 1+i%8, time.Duration(i%7)*time.Microsecond)
			member.Request(now, "W", int64(-i), i%3, 0)
			if i%50 == 0 {
				member.GCStart(now, i%100 == 0, i, 3, 1)
				tr.Snapshot(now, 1<<20, i, 1.25, 1, 2, int64(i))
			}
		}
	}
	var fast, slow bytes.Buffer
	fastSink := NewBinSink(&fast, Options{BlockEvents: 37})
	slowSink := NewBinSink(&slow, Options{BlockEvents: 37})
	drive(fastSink)
	drive(emitOnly{slowSink})
	if fastSink.Count() != slowSink.Count() || fastSink.Count() != 1020 {
		t.Fatalf("counts: fast path %d, Emit path %d, want 1020 each", fastSink.Count(), slowSink.Count())
	}
	if err := fastSink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := slowSink.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast.Bytes(), slow.Bytes()) {
		t.Fatalf("EmitRequest stream differs from the Emit stream at byte %d of %d", firstDiff(fast.Bytes(), slow.Bytes()), slow.Len())
	}
	evs, err := Decode(bytes.NewReader(fast.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Event 5 is the member's second request (i=0 also emits a GC start and
	// a snapshot).
	if m := evs[5]; m.Type != telemetry.EvRequest || m.Dev != 3 || m.Kind != "W" || m.LPN != -1 || m.Pages != 1 {
		t.Errorf("member request decoded as %+v", m)
	}
}

// TestEmitRequestAfterClose: the fast path keeps Emit's closed-sink
// contract — the lost event surfaces as ErrClosedSink — and its first error
// sticks.
func TestEmitRequestAfterClose(t *testing.T) {
	s := NewBinSink(io.Discard, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.EmitRequest(1, 0, "R", 0, 1, 0)
	if err := s.Close(); !errors.Is(err, telemetry.ErrClosedSink) {
		t.Errorf("EmitRequest after Close: %v, want ErrClosedSink", err)
	}
	if s.Count() != 0 {
		t.Errorf("Count = %d after a rejected request", s.Count())
	}

	w := NewWriter(io.Discard, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRequest(1, 0, "R", 0, 1, 0); !errors.Is(err, telemetry.ErrClosedSink) {
		t.Errorf("WriteRequest after Close: %v, want ErrClosedSink", err)
	}
	if err := w.WriteEvent(telemetry.Event{Type: telemetry.EvErase}); !errors.Is(err, telemetry.ErrClosedSink) {
		t.Errorf("sticky error after WriteRequest: %v", err)
	}
}

// TestWriterSteadyStateAllocs drives enough events through small blocks to
// include many flushes; after warm-up the whole path (emit + encode +
// compress + frame) must be allocation-free.
func TestWriterSteadyStateAllocs(t *testing.T) {
	mix := recordedMix(4096, 9)
	w := NewWriter(io.Discard, Options{BlockEvents: 256})
	for _, ev := range mix { // warm up scratch buffers and dictionaries
		if err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(4096, func() {
		if err := w.WriteEvent(mix[i%len(mix)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// The footer index grows by one entry per block (amortized doubling);
	// allow that and nothing else.
	if allocs > 0.01 {
		t.Errorf("steady-state write path allocates %.3f/op, want ~0", allocs)
	}
}
