package binlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
	"time"

	"jitgc/internal/telemetry"
)

// fuzzStream is one writer-produced seed and the events it was written from.
type fuzzStream struct {
	data []byte
	evs  []telemetry.Event
}

// fuzzStreams are small writer outputs: the recorded event mix plus float
// specials and an unknown type, in blocks of 16 and in one block (zero-run
// coded); incompressible events one to a block (stored); and the
// footer-only stream of a writer that saw no events.
func fuzzStreams(tb testing.TB) []fuzzStream {
	tb.Helper()
	mix := recordedMix(40, 3)
	last := mix[len(mix)-1].T
	mix = append(mix,
		telemetry.Event{Type: telemetry.EvSnapshot, T: last + 1, WAF: math.Inf(1)},
		telemetry.Event{Type: telemetry.EvFlushDecision, T: last + 1, IdleFraction: math.NaN()},
		telemetry.Event{Type: "future_event", T: last + 2, Dev: -1, Kind: "z", Recovered: true, Requests: 9})
	var stored []telemetry.Event
	for i := 1; i <= 4; i++ {
		stored = append(stored, storedEvent(time.Duration(i)))
	}
	var out []fuzzStream
	for _, s := range []struct {
		opts Options
		evs  []telemetry.Event
	}{
		{Options{BlockEvents: 16}, mix},
		{Options{}, mix},
		{Options{BlockEvents: 1}, stored},
		{Options{}, nil},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf, s.opts)
		for _, ev := range s.evs {
			if err := w.WriteEvent(ev); err != nil {
				tb.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
		out = append(out, fuzzStream{buf.Bytes(), s.evs})
	}
	return out
}

// addFuzzSeeds adds every writer seed and truncations of it, and returns
// the seeds' events by content so the fuzz body can check them.
func addFuzzSeeds(f *testing.F) map[string][]telemetry.Event {
	known := map[string][]telemetry.Event{}
	for _, s := range fuzzStreams(f) {
		known[string(s.data)] = s.evs
		f.Add(s.data)
		for _, cut := range []int{len(fileMagic), len(fileMagic) + 7, len(s.data) / 2, len(s.data) - 12, len(s.data) - 1} {
			f.Add(s.data[:cut])
		}
	}
	return known
}

// storedStream frames payload as one stored block with a valid CRC and a
// footer counting one block, so the column decoder sees arbitrary bytes past
// the checksum gate.
func storedStream(payload []byte) []byte {
	out := frameStored(payload, uint64(len(payload)))
	idx := binary.AppendUvarint(nil, 1)
	idx = binary.AppendUvarint(idx, uint64(len(fileMagic)))
	idx = append(idx, 1, 0, 0) // events, firstTΔ, lastTΔ: readers do not check them
	idxLen := binary.AppendUvarint(nil, uint64(len(idx)))
	out = append(out, tagFooter)
	out = append(out, idxLen...)
	out = append(out, idx...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(idx))
	out = binary.LittleEndian.AppendUint32(out, uint32(1+len(idxLen)+len(idx)+4))
	return append(out, trailerMagic...)
}

// allocBudget is what reading inputBytes may allocate: 1 MiB of fixed state
// per reader (bufio and scratch), 4 KiB per input byte (payloads grow with
// the bytes that arrive), and 1 KiB per
// raw byte of the largest block whose checksum held (its raw buffer and
// event slab, one Event per ≥ minEventBytes). The last term is the one
// maxBlockRaw and maxBlockEvents bound; a size a stream declares without
// intact bytes behind it enters no term.
func allocBudget(readers, inputBytes, validRaw int) uint64 {
	return uint64(readers)<<20 + uint64(inputBytes)<<12 + uint64(validRaw)<<10
}

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sameEvents compares event slices with sameEvent (NaN is a legal column
// value).
func sameEvents(a, b []telemetry.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameEvent(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkReader drains data through Reader.Next within the allocation budget
// and the block caps, then returns Decode's result.
func checkReader(t *testing.T, data []byte) ([]telemetry.Event, error) {
	var n, validRaw int
	got := allocated(func() {
		r, err := NewReader(bytes.NewReader(data))
		for err == nil {
			if _, err = r.Next(); err == nil {
				n++
				if r.pos == 1 { // the first event of a block that decoded
					validRaw = max(validRaw, len(r.raw))
				}
			}
		}
		if r != nil && (len(r.evs) > maxBlockEvents || cap(r.raw) > maxBlockRaw) {
			t.Fatalf("reader holds %d events, %d raw bytes: past the block caps", len(r.evs), cap(r.raw))
		}
	})
	if budget := allocBudget(1, len(data), validRaw); got > budget {
		t.Fatalf("reading %d input bytes (%d events, largest intact block %d raw bytes) allocated %d bytes, budget %d",
			len(data), n, validRaw, got, budget)
	}
	return Decode(bytes.NewReader(data))
}

// FuzzReader feeds arbitrary bytes to the streaming reader twice: as a whole
// stream, and framed as one stored block with a valid checksum so the
// column decoder runs on them. Neither may panic or allocate past
// allocBudget; a writer seed must decode to the events it was written from;
// and whatever decodes must re-encode and decode to the same events.
func FuzzReader(f *testing.F) {
	known := addFuzzSeeds(f)
	for _, s := range fuzzStreams(f) {
		if r, err := NewReader(bytes.NewReader(s.data)); err == nil {
			if _, err := r.Next(); err == nil {
				f.Add(bytes.Clone(r.raw)) // a block payload, for the framed pass
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := checkReader(t, data)
		if want, ok := known[string(data)]; ok && (err != nil || !sameEvents(evs, want)) {
			t.Fatalf("writer seed decoded to %d events (err %v), want its %d", len(evs), err, len(want))
		}
		if err == nil {
			var buf bytes.Buffer
			w := NewWriter(&buf, Options{BlockEvents: 7})
			for _, ev := range evs {
				if err := w.WriteEvent(ev); err != nil {
					t.Fatalf("decoded event %+v not writable: %v", ev, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := Decode(&buf)
			if err != nil || !sameEvents(again, evs) {
				t.Fatalf("decoded stream does not survive a re-encode (err %v)", err)
			}
		}
		checkReader(t, storedStream(data))
	})
}

// FuzzReadIndex feeds arbitrary bytes to the seeking footer walk,
// ReadIndex, which jitgctrace info runs on files it is handed: no panic, no
// allocation past allocBudget, and on writer seeds an index of their
// blocks — each entry at a block tag, with the block's event count and the
// T of its first and last event, the counts summing to the stream's. (The
// blocks themselves are the streaming reader's, which FuzzReader covers.)
func FuzzReadIndex(f *testing.F) {
	known := addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var idx []IndexEntry
		var err error
		got := allocated(func() { idx, err = ReadIndex(bytes.NewReader(data)) })
		if budget := allocBudget(1, len(data), 0); got > budget {
			t.Fatalf("index walk over %d bytes allocated %d bytes, budget %d", len(data), got, budget)
		}
		want, isSeed := known[string(data)]
		if !isSeed {
			return
		}
		if err != nil {
			t.Fatalf("ReadIndex rejected a writer seed: %v", err)
		}
		k := int64(0)
		for i, e := range idx {
			if e.Offset >= int64(len(data)) || data[e.Offset] != tagBlock || e.Events < 1 || k+e.Events > int64(len(want)) {
				t.Fatalf("entry %d %+v does not index a block of the %d-event seed", i, e, len(want))
			}
			if e.FirstT != want[k].T || e.LastT != want[k+e.Events-1].T {
				t.Fatalf("entry %d spans %v..%v, its block %v..%v", i, e.FirstT, e.LastT, want[k].T, want[k+e.Events-1].T)
			}
			k += e.Events
		}
		if k != int64(len(want)) {
			t.Fatalf("index counts %d events, the seed holds %d", k, len(want))
		}
	})
}

// requestStream is a binlog stream of one write of the given page count,
// written as an event so that a count past Request.Pages can be encoded.
func requestStream(tb testing.TB, pages int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	if err := w.WriteRequest(0, 0, "W", 0, pages, 0); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeRequests feeds arbitrary bytes to the binlog request-trace
// decoder: no panic, and every request it returns, with or without an
// error, passes Validate.
func FuzzDecodeRequests(f *testing.F) {
	f.Add(requestStream(f, 1<<31)) // 2³¹ pages: past Request.Pages
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, _ := DecodeRequests(bytes.NewReader(data))
		for i, r := range reqs {
			if err := r.Validate(); err != nil {
				t.Fatalf("request %d %+v is invalid: %v", i, r, err)
			}
		}
	})
}

// TestZLECheckedBeforeAllocation: a zero-run payload declaring a large
// expansion is only materialized once its length and checksum hold.
func TestZLECheckedBeforeAllocation(t *testing.T) {
	const n = 8 << 20
	payload := binary.AppendUvarint([]byte{0}, n) // an empty literal, then n zeros
	var dst []byte
	var err error
	if got := allocated(func() { dst, err = zleDecompress(nil, payload, n, 0xBAD) }); err == nil || dst != nil || got > 1<<16 {
		t.Fatalf("bad-checksum run: err %v, dst %d bytes, %d bytes allocated", err, len(dst), got)
	}
	crc := crc32.ChecksumIEEE(make([]byte, n))
	if dst, err = zleDecompress(nil, payload, n, crc); err != nil || len(dst) != n {
		t.Fatalf("intact run: err %v, %d bytes", err, len(dst))
	}
}
