package binlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
)

// failWriter accepts limit bytes, then fails every write. It drives the
// encoder's write-error paths: with the 64 KiB bufio layer in front, small
// streams only fail at the Close flush, while streams past the buffer size
// fail mid-block.
type failWriter struct {
	limit int
	n     int
}

var errSynthetic = errors.New("synthetic write failure")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		ok := w.limit - w.n
		if ok < 0 {
			ok = 0
		}
		w.n += ok
		return ok, errSynthetic
	}
	w.n += len(p)
	return len(p), nil
}

// failCloser is a well-behaved writer whose Close fails.
type failCloser struct{ io.Writer }

func (failCloser) Close() error { return errors.New("synthetic close failure") }

// okCloser records whether Close was called.
type okCloser struct {
	io.Writer
	closed bool
}

func (c *okCloser) Close() error { c.closed = true; return nil }

// flakySeeker fails the nth Seek call (1-based) on an otherwise valid
// stream, for the seek-error branches of ReadIndex.
type flakySeeker struct {
	rs    io.ReadSeeker
	seeks int
	failN int
}

func (f *flakySeeker) Read(p []byte) (int, error) { return f.rs.Read(p) }

func (f *flakySeeker) Seek(off int64, whence int) (int64, error) {
	f.seeks++
	if f.seeks == f.failN {
		return 0, errors.New("synthetic seek failure")
	}
	return f.rs.Seek(off, whence)
}

// TestZLECodec pins the zero-run codec down directly: exact round trips on
// the shapes columnar payloads produce, and loud failures on every
// malformed stream class the decoder guards against.
func TestZLECodec(t *testing.T) {
	roundTrips := [][]byte{
		{},
		{7},
		{0},
		{0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0},
		{1, 2, 3, 4},
		{1, 0, 2, 0, 3},                   // lone zeros stay literal
		{1, 0, 0, 2, 0, 0, 0, 3},          // interleaved runs
		{0, 0, 5, 0, 0},                   // runs at both ends
		bytes.Repeat([]byte{0, 0, 9}, 50), // alternating
	}
	for _, src := range roundTrips {
		comp := zleCompress(nil, src)
		dst := bytes.Repeat([]byte{0xAA}, len(src)) // decompress must overwrite every byte
		dst, err := zleDecompress(dst, comp, len(src), crc32.ChecksumIEEE(src))
		if err != nil {
			t.Errorf("decompress(%v): %v", src, err)
			continue
		}
		if !bytes.Equal(dst, src) {
			t.Errorf("round trip %v -> %v -> %v", src, comp, dst)
		}
	}

	uv := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	malformed := []struct {
		name    string
		dstLen  int
		payload []byte
	}{
		{"empty payload, non-empty dst", 4, nil},
		{"literal overflows dst", 4, uv(10)},
		{"truncated literal bytes", 4, append(uv(3), 1)},
		{"zero run of one", 4, append(append(uv(1), 9), uv(1)...)},
		{"zero run overflows dst", 4, append(append(uv(1), 9), uv(200)...)},
		{"missing zero-run varint", 4, append(uv(2), 1, 2)},
		{"trailing bytes", 2, append(append(uv(2), 1, 2), 0xFF)},
	}
	// The token checks alone must reject each case, in both walks: a forged
	// CRC gets past zleDecompress's checksum, and then only these checks keep
	// the materializing walk inside dst.
	for _, tc := range malformed {
		if _, err := zleWalk(nil, tc.payload, tc.dstLen); err == nil {
			t.Errorf("%s: checksum walk accepted", tc.name)
		}
		if _, err := zleWalk(make([]byte, tc.dstLen), tc.payload, tc.dstLen); err == nil {
			t.Errorf("%s: materializing walk accepted", tc.name)
		}
	}
}

// TestSmallDictSpill drives the dictionary past its linear-scan window so
// the map spill path runs, then proves a pathologically-many-strings block
// still round-trips end to end.
func TestSmallDictSpill(t *testing.T) {
	var d smallDict
	const n = 3 * smallDictLinear
	for i := 0; i < n; i++ {
		if id := d.id(fmt.Sprintf("s%02d", i)); id != uint64(i) {
			t.Fatalf("first insert %d got id %d", i, id)
		}
	}
	for i := n - 1; i >= 0; i-- { // re-query through the map, both halves
		if id := d.id(fmt.Sprintf("s%02d", i)); id != uint64(i) {
			t.Fatalf("lookup %d got id %d", i, id)
		}
	}
	if id := d.id("fresh-after-spill"); id != n {
		t.Fatalf("post-spill insert got id %d, want %d", id, n)
	}
	d.reset()
	if id := d.id("anything"); id != 0 {
		t.Fatalf("id after reset = %d, want 0", id)
	}

	// End to end: one block whose kind column has 40 distinct values.
	var evs []telemetry.Event
	for i := 0; i < 40; i++ {
		evs = append(evs, telemetry.Event{
			Type: telemetry.EvRequest, T: time.Duration(i), Kind: fmt.Sprintf("k%02d", i), Pages: 1,
		})
	}
	got, err := Decode(bytes.NewReader(encodeAll(t, evs, Options{})))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("spilled-dictionary block did not round-trip")
	}
}

// TestFieldNames checks every column bit maps to its wire name — these
// strings are what unrepresentable-event errors show the user.
func TestFieldNames(t *testing.T) {
	for _, c := range intCols {
		if got := fieldName(c.bit); got != c.name {
			t.Errorf("int bit %#x named %q, want %q", uint32(c.bit), got, c.name)
		}
	}
	for _, c := range strCols {
		if got := fieldName(c.bit); got != c.name {
			t.Errorf("str bit %#x named %q, want %q", uint32(c.bit), got, c.name)
		}
	}
	if got := fieldName(1 << 31); !strings.Contains(got, "bit") {
		t.Errorf("unknown bit named %q", got)
	}
}

// TestByteReaderMalformed covers the payload-cursor guards shared by every
// column decoder.
func TestByteReaderMalformed(t *testing.T) {
	br := byteReader{b: nil}
	if _, err := br.uvarint(); err == nil {
		t.Error("uvarint on empty accepted")
	}
	br = byteReader{b: bytes.Repeat([]byte{0x80}, 11)} // overlong varint
	if _, err := br.uvarint(); err == nil {
		t.Error("overlong varint accepted")
	}
	br = byteReader{b: []byte{1, 2}}
	if _, err := br.take(3); err == nil {
		t.Error("take past end accepted")
	}
	br = byteReader{b: []byte{1}}
	if _, err := br.take(-1); err == nil {
		t.Error("negative take accepted")
	}
	// Dictionary guards: count larger than the remaining payload, and a
	// truncated entry.
	br = byteReader{b: binary.AppendUvarint(nil, 1<<40)}
	if _, err := br.readDict(); err == nil {
		t.Error("implausible dictionary count accepted")
	}
	br = byteReader{b: append(binary.AppendUvarint(nil, 1), binary.AppendUvarint(nil, 9)...)}
	if _, err := br.readDict(); err == nil {
		t.Error("truncated dictionary entry accepted")
	}
}

// bigKindEvents builds events whose kind strings are large, distinct, and
// incompressible, so a few of them overflow the writer's 64 KiB buffer and
// surface write errors mid-stream rather than only at the final flush.
func bigKindEvents(n int) []telemetry.Event {
	evs := make([]telemetry.Event, n)
	state := uint64(0x9E3779B97F4A7C15)
	var sb strings.Builder
	for i := range evs {
		sb.Reset()
		for sb.Len() < 4096 {
			state = state*6364136223846793005 + 1442695040888963407
			fmt.Fprintf(&sb, "%016x", state)
		}
		evs[i] = telemetry.Event{
			Type: telemetry.EvRequest, T: time.Duration(i),
			Kind:  fmt.Sprintf("k%05d-%s", i, sb.String()),
			Pages: 1,
		}
	}
	return evs
}

// TestWriterWriteErrors sweeps the failure point across the output stream:
// whatever write fails first, the error must surface, stick, and leave the
// writer refusing further events.
func TestWriterWriteErrors(t *testing.T) {
	evs := bigKindEvents(64)
	for _, limit := range []int{0, 3, 1 << 16, 1<<16 + 100, 1 << 17, 200_000} {
		fw := &failWriter{limit: limit}
		w := NewWriter(fw, Options{BlockEvents: 8})
		var werr error
		for _, ev := range evs {
			if werr = w.WriteEvent(ev); werr != nil {
				break
			}
		}
		cerr := w.Close()
		if werr == nil && cerr == nil {
			if fw.n > limit {
				t.Fatalf("limit=%d: no error surfaced", limit)
			}
			continue // the whole stream genuinely fit under the limit
		}
		if again := w.Close(); again != cerr {
			t.Errorf("limit=%d: Close not idempotent: %v vs %v", limit, again, cerr)
		}
		if err := w.WriteEvent(evs[0]); err == nil {
			t.Errorf("limit=%d: WriteEvent after failed Close accepted", limit)
		}
	}
}

// TestWriterCloseStates covers the close-ordering contract: writes after
// Close are rejected with ErrClosedSink, and a clean empty stream still
// gets its header and footer.
func TestWriterCloseStates(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := w.WriteEvent(telemetry.Event{Type: telemetry.EvErase, T: 1}); !errors.Is(err, telemetry.ErrClosedSink) {
		t.Errorf("write after Close: %v, want ErrClosedSink", err)
	}
	// Flush-only failure: everything fits the bufio layer, so the one
	// failing write is the final flush.
	w = NewWriter(&failWriter{limit: 0}, Options{})
	if err := w.WriteEvent(telemetry.Event{Type: telemetry.EvErase, T: 1}); err != nil {
		t.Fatalf("buffered write failed early: %v", err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close over a dead writer succeeded")
	}
}

// TestWriterRefusesBlocksTheReaderRejects: a block the reader would call
// implausible is refused with the sticky ErrBlockTooLarge before anything
// of it is written. BlockEvents past 2²⁴ fails at the first write; a
// BlockEvents at the limit is accepted and reads back. The raw payload
// limit (256 MiB) is checked at its boundary through the same predicate
// the flush applies, since a block that size is too large for a test.
func TestWriterRefusesBlocksTheReaderRejects(t *testing.T) {
	ev := telemetry.Event{Type: telemetry.EvErase, T: 1, Victim: 3}
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{BlockEvents: maxBlockEvents + 1})
	if err := w.WriteEvent(ev); !errors.Is(err, ErrBlockTooLarge) {
		t.Errorf("WriteEvent with %d events per block: err = %v, want ErrBlockTooLarge", maxBlockEvents+1, err)
	}
	if err := w.Close(); !errors.Is(err, ErrBlockTooLarge) {
		t.Errorf("Close: err = %v, want the sticky ErrBlockTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused writer wrote %d bytes", buf.Len())
	}

	buf.Reset()
	w = NewWriter(&buf, Options{BlockEvents: maxBlockEvents})
	if err := w.WriteEvent(ev); err != nil {
		t.Fatalf("WriteEvent at the block-size limit: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close at the block-size limit: %v", err)
	}
	if got, err := Decode(bytes.NewReader(buf.Bytes())); err != nil || len(got) != 1 || got[0] != ev {
		t.Errorf("stream at the block-size limit decodes to %v, %v; want [%+v]", got, err, ev)
	}

	for _, tc := range []struct {
		events, raw int
		refused     bool
	}{
		{maxBlockEvents, maxBlockRaw, false},
		{maxBlockEvents + 1, 1, true},
		{1, maxBlockRaw + 1, true},
	} {
		if err := blockTooLarge(tc.events, tc.raw); errors.Is(err, ErrBlockTooLarge) != tc.refused {
			t.Errorf("blockTooLarge(%d, %d) = %v, refused want %v", tc.events, tc.raw, err, tc.refused)
		}
	}
}

// TestBinSinkErrorPaths covers the sink facade's sticky-error and
// underlying-closer contracts.
func TestBinSinkErrorPaths(t *testing.T) {
	// Write errors surface at Close and stick.
	s := NewBinSink(&failWriter{limit: 0}, Options{})
	s.Emit(telemetry.Event{Type: telemetry.EvErase, T: 1})
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
	err := s.Close()
	if err == nil {
		t.Fatal("Close over a dead writer succeeded")
	}
	s.Emit(telemetry.Event{Type: telemetry.EvErase, T: 2}) // ignored, keeps the first error
	if again := s.Close(); again != err {
		t.Errorf("Close not idempotent: %v vs %v", again, err)
	}

	// Mid-stream write errors make later emits no-ops.
	s = NewBinSink(&failWriter{limit: 1 << 16}, Options{BlockEvents: 4})
	for _, ev := range bigKindEvents(32) {
		s.Emit(ev)
	}
	if err := s.Close(); err == nil {
		t.Error("mid-stream write failure not reported at Close")
	}

	// Emit after a clean Close is ErrClosedSink.
	s = NewBinSink(io.Discard, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Emit(telemetry.Event{Type: telemetry.EvErase, T: 1})
	if err := s.Close(); !errors.Is(err, telemetry.ErrClosedSink) {
		t.Errorf("emit-after-close error = %v, want ErrClosedSink", err)
	}

	// An underlying closer is closed exactly once; its failure is reported.
	oc := &okCloser{Writer: io.Discard}
	s = NewBinSink(oc, Options{})
	if err := s.Close(); err != nil || !oc.closed {
		t.Errorf("underlying closer: err=%v closed=%v", err, oc.closed)
	}
	s = NewBinSink(failCloser{io.Discard}, Options{})
	err = s.Close()
	if err == nil || !strings.Contains(err.Error(), "close") {
		t.Errorf("failing closer: %v", err)
	}
	if again := s.Close(); again != err {
		t.Errorf("failing closer not sticky: %v vs %v", again, err)
	}
}

// TestFooterCorruption damages the footer region of a valid stream in each
// way the trailer walk guards against, and requires both the streaming
// reader and the index loader to reject it.
func TestFooterCorruption(t *testing.T) {
	full := encodeAll(t, recordedMix(300, 7), Options{BlockEvents: 64})

	check := func(name string, mut []byte) {
		t.Helper()
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Errorf("%s: Decode accepted", name)
		}
		if _, err := ReadIndex(bytes.NewReader(mut)); err == nil {
			t.Errorf("%s: ReadIndex accepted", name)
		}
	}

	mut := bytes.Clone(full)
	mut[len(mut)-1] ^= 0x20 // trailer magic
	check("bad trailer magic", mut)

	mut = bytes.Clone(full)
	mut[len(mut)-14] ^= 0x40 // inside the index payload: CRC mismatch
	check("footer index corrupted", mut)

	// The footerLen word is only consumed by the end-of-file index walk;
	// the streaming reader never needs it.
	mut = bytes.Clone(full)
	binary.LittleEndian.PutUint32(mut[len(mut)-8:], 0xFFFFFF) // footerLen
	if _, err := ReadIndex(bytes.NewReader(mut)); err == nil {
		t.Error("implausible footer length: ReadIndex accepted")
	}
	mut = bytes.Clone(full)
	binary.LittleEndian.PutUint32(mut[len(mut)-8:], 2)
	if _, err := ReadIndex(bytes.NewReader(mut)); err == nil {
		t.Error("undersized footer length: ReadIndex accepted")
	}

	// Footer tag: locate it from the recorded footerLen.
	footerLen := int(binary.LittleEndian.Uint32(full[len(full)-8:]))
	mut = bytes.Clone(full)
	mut[len(mut)-8-footerLen] = 0x77
	if _, err := ReadIndex(bytes.NewReader(mut)); err == nil {
		t.Error("bad footer tag: ReadIndex accepted")
	}

	if _, err := ReadIndex(bytes.NewReader([]byte("JG"))); err == nil {
		t.Error("short stream: ReadIndex accepted")
	}
	for failN := 1; failN <= 3; failN++ {
		if _, err := ReadIndex(&flakySeeker{rs: bytes.NewReader(full), failN: failN}); err == nil {
			t.Errorf("seek failure #%d: ReadIndex accepted", failN)
		}
	}

	// The intact stream's index: one entry per block, in file order, each
	// within its own time range, counting every event.
	idx, err := ReadIndex(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 5 {
		t.Fatalf("index has %d entries, want 5", len(idx))
	}
	var total int64
	for i, e := range idx {
		total += e.Events
		if e.FirstT > e.LastT || (i > 0 && e.Offset <= idx[i-1].Offset) {
			t.Errorf("entry %d %+v out of order after %+v", i, e, idx[max(i-1, 0)])
		}
	}
	if total != 300 {
		t.Errorf("index counts %d events, want 300", total)
	}
}

// frameStored wraps payload in a stored-codec block frame (correct CRC
// unless overridden) behind the file magic — the scaffolding for feeding
// the block reader precisely malformed input.
func frameStored(payload []byte, declaredRaw uint64) []byte {
	out := []byte(fileMagic)
	out = append(out, tagBlock)
	out = binary.AppendUvarint(out, declaredRaw)
	out = append(out, codecStore)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func frameCodec(codec byte, rawLen uint64, payload []byte, crc uint32) []byte {
	out := []byte(fileMagic)
	out = append(out, tagBlock)
	out = binary.AppendUvarint(out, rawLen)
	out = append(out, codec)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc)
	return append(out, payload...)
}

// storedCopy reframes every block of a writer's stream as a stored block,
// so its events read back through the store path too. The footer is kept
// as is: its block offsets go stale, which only a seek would notice (the
// streaming reader checks just its block count).
func storedCopy(stream []byte) ([]byte, error) {
	out := []byte(fileMagic)
	br := byteReader{b: stream, off: len(fileMagic)}
	for br.off < len(stream) && stream[br.off] == tagBlock {
		br.off++
		rawLen, err1 := br.uvarint()
		codec, err2 := br.take(1)
		payloadLen, err3 := br.uvarint()
		crcBytes, err4 := br.take(4)
		payload, err5 := br.take(int(payloadLen))
		if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
			return nil, err
		}
		raw, crc := payload, binary.LittleEndian.Uint32(crcBytes)
		if codec[0] == codecZLE {
			var err error
			if raw, err = zleDecompress(nil, payload, int(rawLen), crc); err != nil {
				return nil, err
			}
		}
		out = append(out, frameCodec(codecStore, rawLen, raw, crc)[len(fileMagic):]...)
	}
	return append(out, stream[br.off:]...), nil
}

// TestCraftedBlockErrors feeds hand-built frames and columnar payloads
// through the reader: every malformed shape must produce an error, never
// garbage events.
func TestCraftedBlockErrors(t *testing.T) {
	uv := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	dict := func(strs ...string) []byte {
		var b []byte
		b = binary.AppendUvarint(b, uint64(len(strs)))
		for _, s := range strs {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}

	cases := []struct {
		name   string
		stream []byte
	}{
		{"unknown record tag", append([]byte(fileMagic), 0x7F)},
		{"zero raw length", frameCodec(codecStore, 0, nil, 0)},
		{"oversize raw length", frameCodec(codecStore, maxBlockRaw+1, nil, 0)},
		{"stored payload length mismatch", frameCodec(codecStore, 10, []byte{1, 2}, 0)},
		{"unknown codec", frameCodec(9, 4, []byte{1, 2, 3, 4}, crc32.ChecksumIEEE([]byte{1, 2, 3, 4}))},
		{"zle payload malformed", frameCodec(codecZLE, 4, uv(200), 0)},
		{"retired DEFLATE codec", frameCodec(1, 4, []byte{1, 2, 3, 4}, crc32.ChecksumIEEE([]byte{1, 2, 3, 4}))},
		{"zero event count", frameStored(uv(0), 1)},
		{"implausible event count", frameStored(uv(maxBlockEvents+1), uint64(len(uv(maxBlockEvents+1))))},
		{"type index out of range", func() []byte {
			p := cat(uv(1), dict("erase"), uv(5))
			return frameStored(p, uint64(len(p)))
		}()},
		{"missing T column", func() []byte {
			p := cat(uv(1), dict("erase"), uv(0))
			return frameStored(p, uint64(len(p)))
		}()},
		{"truncated int columns", func() []byte {
			p := cat(uv(1), dict("erase"), uv(0), uv(zigzag(5)))
			return frameStored(p, uint64(len(p)))
		}()},
	}
	for _, tc := range cases {
		got, err := Decode(bytes.NewReader(tc.stream))
		if err == nil {
			t.Errorf("%s: accepted with %d events", tc.name, len(got))
		}
	}

	// Sticky reader error: after the first failure, Next keeps failing
	// with the same error.
	r, err := NewReader(bytes.NewReader(cases[1].stream))
	if err != nil {
		t.Fatal(err)
	}
	_, err1 := r.Next()
	_, err2 := r.Next()
	if err1 == nil || err1 != err2 {
		t.Errorf("reader error not sticky: %v vs %v", err1, err2)
	}

	// Every strict prefix of a valid block payload must fail somewhere in
	// the column walk — this sweeps the truncation branch of each column
	// decoder in one loop. An unknown type carries every column.
	ev := telemetry.Event{Type: "future_event", T: 5, Kind: "R", Pages: 3,
		LPN: 11, Latency: 7, Tenant: 2, Class: "gold", Action: "a", Op: "w",
		Reason: "r", Foreground: true, Recovered: true, WAF: 1.25, IdleFraction: 0.5}
	full, err := storedCopy(encodeAll(t, []telemetry.Event{ev}, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	// Layout after magic: tag, rawLen uvarint, codec, payloadLen uvarint, crc32, payload, footer.
	br := byteReader{b: full[len(fileMagic)+1:]}
	rawLen, err := br.uvarint()
	if err != nil {
		t.Fatal(err)
	}
	br.off++ // codec byte
	if _, err := br.uvarint(); err != nil {
		t.Fatal(err)
	}
	if _, err := br.take(4); err != nil {
		t.Fatal(err)
	}
	payload, err := br.take(int(rawLen))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		if got, err := Decode(bytes.NewReader(frameStored(payload[:cut], uint64(cut)))); err == nil {
			t.Errorf("payload prefix of %d/%d bytes accepted with %d events", cut, len(payload), len(got))
		}
	}
	// The full payload with a trailing byte must be rejected too.
	padded := append(bytes.Clone(payload), 0)
	if _, err := Decode(bytes.NewReader(frameStored(padded, uint64(len(padded))))); err == nil {
		t.Error("trailing byte after block payload accepted")
	}
	// Sanity: the reframed full payload (without a footer) fails only for
	// the missing footer, proving the scaffolding frames real blocks.
	_, err = Decode(bytes.NewReader(frameStored(payload, rawLen)))
	if err == nil || !strings.Contains(err.Error(), "footer") {
		t.Errorf("reframed valid block: %v, want missing-footer error", err)
	}
}

// TestConvertErrors covers ToJSONL's failure modes and the magic sniff.
func TestConvertErrors(t *testing.T) {
	const events = 2000
	good := encodeAll(t, recordedMix(events, 9), Options{})
	toJSONL := func(dst io.Writer, stream []byte) (int64, error) {
		rd, err := NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		return ToJSONL(dst, rd)
	}
	if n, err := toJSONL(&failWriter{limit: 0}, good); err == nil || n >= events {
		t.Errorf("dead JSONL destination: %d events, err %v; want an error before the end", n, err)
	}
	if _, err := toJSONL(&failWriter{limit: 1 << 17}, good); err == nil {
		t.Error("mid-stream JSONL write failure not reported")
	}
	mut := bytes.Clone(good)
	mut[len(mut)/2] ^= 0x40
	if _, err := toJSONL(io.Discard, mut); err == nil {
		t.Error("corrupt binlog source accepted")
	}

	if IsBinary([]byte("JG")) {
		t.Error("short prefix sniffed as binary")
	}
	if IsBinary([]byte(`{"type"`)) {
		t.Error("JSONL sniffed as binary")
	}
	if !IsBinary([]byte(Magic + "xxxx")) {
		t.Error("binlog prefix not sniffed")
	}
}

// TestRequestStreamErrors covers the request-trace adapters' validation
// and error propagation.
func TestRequestStreamErrors(t *testing.T) {
	if err := EncodeRequests(io.Discard, []trace.Request{{Kind: trace.Read, Pages: 0}}, Options{}); err == nil {
		t.Error("invalid request accepted")
	}
	if err := EncodeRequests(&failWriter{limit: 0}, []trace.Request{{Kind: trace.Read, Pages: 1}}, Options{}); err == nil {
		t.Error("dead writer not reported")
	}

	if _, err := DecodeRequests(strings.NewReader("garbage")); err == nil {
		t.Error("garbage request stream accepted")
	}

	encode := func(evs ...telemetry.Event) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, Options{})
		for _, ev := range evs {
			if err := w.WriteEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// A telemetry stream is not a request trace.
	if _, err := DecodeRequests(bytes.NewReader(encode(telemetry.Event{Type: telemetry.EvErase, T: 1}))); err == nil {
		t.Error("non-request event accepted as a request")
	}
	// A request event with a kind letter outside the trace alphabet.
	if _, err := DecodeRequests(bytes.NewReader(encode(telemetry.Event{Type: telemetry.EvRequest, T: 1, Kind: "X", Pages: 1}))); err == nil {
		t.Error("unknown kind letter accepted")
	}
	// Kind decodes but the request fails validation.
	if _, err := DecodeRequests(bytes.NewReader(encode(telemetry.Event{Type: telemetry.EvRequest, T: 1, Kind: "R", Pages: 1, LPN: -5}))); err == nil {
		t.Error("invalid decoded request accepted")
	}
	// Mid-stream corruption propagates out of the decode loop.
	good := encodeAll(t, []telemetry.Event{{Type: telemetry.EvRequest, T: 1, Kind: "R", Pages: 1}}, Options{})
	mut := bytes.Clone(good)
	mut[len(fileMagic)+8] ^= 0x40
	if _, err := DecodeRequests(bytes.NewReader(mut)); err == nil {
		t.Error("corrupt request stream accepted")
	}
}
