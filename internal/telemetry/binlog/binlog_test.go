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

// TestRoundTripMix decodes the recorded mix at three block sizes, and once
// with every block reframed as stored.
func TestRoundTripMix(t *testing.T) {
	for _, tc := range []struct {
		blockEvents int
		stored      bool
	}{{0, false}, {7, false}, {64, false}, {64, true}} {
		name := fmt.Sprintf("block=%d", tc.blockEvents)
		if tc.stored {
			name += "/stored"
		}
		t.Run(name, func(t *testing.T) {
			want := recordedMix(1000, 42)
			stream := encodeAll(t, want, Options{BlockEvents: tc.blockEvents})
			if tc.stored {
				var err error
				if stream, err = storedCopy(stream); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Decode(bytes.NewReader(stream))
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

// jsonlViews writes evs through a JSONLSink and a BinSink teed on one
// stream, and returns the JSONLSink's bytes, ToJSONL's view of the binlog,
// and the binlog.
func jsonlViews(evs []telemetry.Event, opts Options) (direct, view, bin []byte, err error) {
	var jb, bb, vb bytes.Buffer
	sink := telemetry.Tee(telemetry.NewJSONLSink(&jb), NewBinSink(&bb, opts))
	for _, ev := range evs {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		return nil, nil, nil, err
	}
	rd, err := NewReader(bytes.NewReader(bb.Bytes()))
	if err != nil {
		return nil, nil, nil, err
	}
	if n, err := ToJSONL(&vb, rd); err != nil {
		return nil, nil, nil, err
	} else if n != int64(len(evs)) {
		return nil, nil, nil, fmt.Errorf("ToJSONL wrote %d events, want %d", n, len(evs))
	}
	return jb.Bytes(), vb.Bytes(), bb.Bytes(), nil
}

// TestJSONLByteIdentity is the view contract: ToJSONL over the binlog a
// BinSink wrote reproduces, byte for byte, what a JSONLSink wrote for the
// same events.
func TestJSONLByteIdentity(t *testing.T) {
	direct, view, bin, err := jsonlViews(recordedMix(2000, 7), Options{BlockEvents: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(bin)*5 > len(direct) {
		t.Errorf("binary %d B is not at least 5x smaller than JSONL %d B", len(bin), len(direct))
	}
	if !bytes.Equal(view, direct) {
		t.Fatalf("JSONL view of the binlog differs from JSONLSink's bytes:\nfirst divergence near %d", firstDiff(direct, view))
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
// ints, awkward strings, true bools, and finite random floats.
type quickEvents []telemetry.Event

var quickTypes = []telemetry.EventType{
	telemetry.EvRequest, telemetry.EvFlushDecision, telemetry.EvGCStart, telemetry.EvGCEnd,
	telemetry.EvErase, telemetry.EvToken, telemetry.EvSnapshot, telemetry.EvFault,
	telemetry.EvBlockRetired, telemetry.EvReadRetry, telemetry.EvDeviceDegraded, telemetry.EvTenantSummary,
	telemetry.EvStripeTorn, telemetry.EvRebuild,
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
			if !populate(intCols[c].bit) {
				continue
			}
			switch intCols[c].bit {
			case telemetry.FForeground, telemetry.FRecovered:
				intCols[c].set(&ev, 1)
			case telemetry.FIdleFraction, telemetry.FWAF:
				intCols[c].set(&ev, int64(math.Float64bits(rf())))
			default:
				intCols[c].set(&ev, ri())
			}
		}
		for c := range strCols {
			if populate(strCols[c].bit) {
				strCols[c].set(&ev, rs())
			}
		}
		evs[i] = ev
	}
	return reflect.ValueOf(evs)
}

// TestQuickJSONLBinaryJSONL drives randomized event batches through a
// BinSink and ToJSONL, with small blocks so every batch spans several, and
// demands JSONLSink's bytes for the same batch.
func TestQuickJSONLBinaryJSONL(t *testing.T) {
	f := func(evs quickEvents) bool {
		direct, view, bin, err := jsonlViews(evs, Options{BlockEvents: 16})
		if err != nil {
			t.Logf("views: %v", err)
			return false
		}
		if !bytes.Equal(view, direct) {
			t.Logf("divergence near byte %d of %d", firstDiff(direct, view), len(direct))
			return false
		}
		// And the decoded events match the in-memory originals.
		got, err := Decode(bytes.NewReader(bin))
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

// TestFloatSpecialValues pushes NaN, infinities and −0 through both float
// columns (JSON cannot carry them, the binary format can), bit for bit, and
// alternating values through both bool columns. An unknown type carries all
// four fields.
func TestFloatSpecialValues(t *testing.T) {
	vals := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1.25, 1.25, math.MaxFloat64, math.SmallestNonzeroFloat64}
	evs := make([]telemetry.Event, len(vals))
	for i, v := range vals {
		evs[i] = telemetry.Event{Type: "future_event", T: time.Duration(i), WAF: v, IdleFraction: -v,
			Foreground: i%2 == 0, Recovered: i%2 == 1}
	}
	got, err := Decode(bytes.NewReader(encodeAll(t, evs, Options{BlockEvents: 4})))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("%d events decoded, want %d", len(got), len(evs))
	}
	for i := range evs {
		if !sameEvent(got[i], evs[i]) {
			t.Errorf("event %d: got %+v (WAF bits %#x), want %+v (WAF bits %#x)",
				i, got[i], math.Float64bits(got[i].WAF), evs[i], math.Float64bits(evs[i].WAF))
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
	zle := encodeAll(t, evs, Options{BlockEvents: 64})
	stored, err := storedCopy(zle)
	if err != nil {
		t.Fatal(err)
	}
	for codec, full := range map[string][]byte{"zero-run": zle, "stored": stored} {
		for _, pos := range []int{len(fileMagic) + 12, len(full) / 2, len(full) - 20} {
			mut := bytes.Clone(full)
			mut[pos] ^= 0x40
			got, err := Decode(bytes.NewReader(mut))
			if err == nil {
				// A flip confined to one event's value would be silent only
				// if CRC were skipped; require detection.
				if reflect.DeepEqual(got, evs) {
					t.Errorf("%s: flip at %d silently ignored", codec, pos)
				} else {
					t.Errorf("%s: flip at %d decoded %d garbage events without error", codec, pos, len(got))
				}
			}
			for i := range got {
				if i < len(evs) && !reflect.DeepEqual(got[i], evs[i]) {
					t.Errorf("%s: flip at %d returned corrupt event %d before the error", codec, pos, i)
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

// TestJGB1Rejected: a stream of the previous layout, whose bools and floats
// had columns of their own, fails at the header as an unsupported version
// rather than misdecoding under the current one.
func TestJGB1Rejected(t *testing.T) {
	stream := encodeAll(t, recordedMix(10, 1), Options{})
	copy(stream, "JGB1")
	if _, err := NewReader(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("JGB1 stream: err %v, want the unsupported-version error", err)
	}
	if IsBinary(stream) {
		t.Error("JGB1 stream sniffed as binary")
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
	// A flush decision carries no WAF, and a -0 there is a populated
	// field: it would decode as +0.
	w = NewWriter(io.Discard, Options{})
	err = w.WriteEvent(telemetry.Event{Type: telemetry.EvFlushDecision, T: 1, WAF: math.Copysign(0, -1)})
	if err == nil || !strings.Contains(err.Error(), "waf") {
		t.Fatalf("flush_decision with WAF -0 accepted (err=%v)", err)
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

// TestDecodeRequestsNarrowsPages: the binlog request decoder accepts a
// request of math.MaxInt32 pages and rejects one page more, naming the
// request, instead of wrapping the count negative in Request.Pages.
func TestDecodeRequestsNarrowsPages(t *testing.T) {
	for _, pages := range []int{math.MaxInt32, math.MaxInt32 + 1} {
		reqs, err := DecodeRequests(bytes.NewReader(requestStream(t, pages)))
		switch {
		case pages <= math.MaxInt32 && (err != nil || len(reqs) != 1 || int(reqs[0].Pages) != pages):
			t.Errorf("%d pages decoded to %+v, %v; want one request of %d pages", pages, reqs, err, pages)
		case pages > math.MaxInt32 && (err == nil || !strings.Contains(err.Error(), "request 0")):
			t.Errorf("%d pages decoded to %+v, %v; want an error naming request 0", pages, reqs, err)
		}
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
