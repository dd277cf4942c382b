package binlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/telemetry"
)

// refWriter is the two-pass encoder the package shipped before Writer kept
// its pending block in column form: events are buffered by value in a
// []telemetry.Event block, validated in their heap slot, and transposed into
// columns at flush through per-column getters, with the byte-at-a-time
// zero-run loop. It is the differential oracle for Writer: every stream must
// come out of both byte for byte.
//
// fault, when set, makes the reference drop a request event's victim column
// value — the slip a request fast path could make — so a test can show the
// sweep catches a wrong encoder.
type refWriter struct {
	bw    *bufio.Writer
	opts  Options
	fault bool

	block []telemetry.Event
	off   int64
	idx   []indexEntry
	n     int64

	headerDone bool
	closed     bool
	err        error

	raw      []byte
	zle      []byte
	typeDict smallDict
	typeIdx  []byte
	tbuf     []byte
	bufs     [][]byte // by refCols index
	prev     []int64
	dicts    []smallDict
}

// refCol is one column as the two-pass encoder knew it: its field bit, its
// name, and the getter it read events through (int for the integer
// columns, str for the string ones).
type refCol struct {
	bit  telemetry.FieldSet
	name string
	int  func(*telemetry.Event) int64
	str  func(*telemetry.Event) string
}

func refBool(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// refCols is the reference's own schema, in wire order: the integer
// columns, then the string columns. It is written out here, not derived
// from telemetry.Columns, so the differential holds the writer's table
// walk to an independent statement of the format.
var refCols = []refCol{
	{telemetry.FDev, "dev", func(e *telemetry.Event) int64 { return int64(e.Dev) }, nil},
	{telemetry.FLPN, "lpn", func(e *telemetry.Event) int64 { return e.LPN }, nil},
	{telemetry.FVictim, "victim", func(e *telemetry.Event) int64 { return int64(e.Victim) }, nil},
	{telemetry.FPage, "page", func(e *telemetry.Event) int64 { return int64(e.Page) }, nil},
	{telemetry.FPages, "pages", func(e *telemetry.Event) int64 { return int64(e.Pages) }, nil},
	{telemetry.FLatency, "latency_ns", func(e *telemetry.Event) int64 { return int64(e.Latency) }, nil},
	{telemetry.FFreeBytes, "free_bytes", func(e *telemetry.Event) int64 { return e.FreeBytes }, nil},
	{telemetry.FReclaimBytes, "reclaim_bytes", func(e *telemetry.Event) int64 { return e.ReclaimBytes }, nil},
	{telemetry.FPredictedBytes, "predicted_bytes", func(e *telemetry.Event) int64 { return e.PredictedBytes }, nil},
	{telemetry.FIdleFraction, "idle_fraction", func(e *telemetry.Event) int64 { return int64(math.Float64bits(e.IdleFraction)) }, nil},
	{telemetry.FForeground, "foreground", func(e *telemetry.Event) int64 { return refBool(e.Foreground) }, nil},
	{telemetry.FValidPages, "valid_pages", func(e *telemetry.Event) int64 { return int64(e.ValidPages) }, nil},
	{telemetry.FSIPPages, "sip_pages", func(e *telemetry.Event) int64 { return int64(e.SIPPages) }, nil},
	{telemetry.FFreedPages, "freed_pages", func(e *telemetry.Event) int64 { return e.FreedPages }, nil},
	{telemetry.FElapsed, "elapsed_ns", func(e *telemetry.Event) int64 { return int64(e.Elapsed) }, nil},
	{telemetry.FEraseCount, "erase_count", func(e *telemetry.Event) int64 { return e.EraseCount }, nil},
	{telemetry.FAttempts, "attempts", func(e *telemetry.Event) int64 { return int64(e.Attempts) }, nil},
	{telemetry.FRecovered, "recovered", func(e *telemetry.Event) int64 { return refBool(e.Recovered) }, nil},
	{telemetry.FTenant, "tenant", func(e *telemetry.Event) int64 { return int64(e.Tenant) }, nil},
	{telemetry.FDropped, "dropped", func(e *telemetry.Event) int64 { return e.Dropped }, nil},
	{telemetry.FViolations, "violations", func(e *telemetry.Event) int64 { return e.Violations }, nil},
	{telemetry.FDirtyPages, "dirty_pages", func(e *telemetry.Event) int64 { return int64(e.DirtyPages) }, nil},
	{telemetry.FWAF, "waf", func(e *telemetry.Event) int64 { return int64(math.Float64bits(e.WAF)) }, nil},
	{telemetry.FFGC, "fgc", func(e *telemetry.Event) int64 { return e.FGCInvocations }, nil},
	{telemetry.FBGC, "bgc", func(e *telemetry.Event) int64 { return e.BGCCollections }, nil},
	{telemetry.FRequests, "requests", func(e *telemetry.Event) int64 { return e.Requests }, nil},
	{telemetry.FKind, "kind", nil, func(e *telemetry.Event) string { return e.Kind }},
	{telemetry.FAction, "action", nil, func(e *telemetry.Event) string { return e.Action }},
	{telemetry.FOp, "op", nil, func(e *telemetry.Event) string { return e.Op }},
	{telemetry.FReason, "reason", nil, func(e *telemetry.Event) string { return e.Reason }},
	{telemetry.FClass, "class", nil, func(e *telemetry.Event) string { return e.Class }},
}

// refStored is the reference's stored set for an event type: its field
// set plus the four always-stored columns.
func refStored(t telemetry.EventType) telemetry.FieldSet {
	set, _ := telemetry.Fields(t)
	return set | telemetry.FDev | telemetry.FLPN | telemetry.FVictim | telemetry.FPage
}

// refUnrepresentable is the reference's check: the error naming the lowest
// field bit ev populates outside its stored set, or nil.
func refUnrepresentable(ev *telemetry.Event) error {
	stored, name, lowest := refStored(ev.Type), "", telemetry.FieldSet(0)
	for _, c := range refCols {
		populated := c.int != nil && c.int(ev) != 0 || c.str != nil && c.str(ev) != ""
		if populated && stored&c.bit == 0 && (name == "" || c.bit < lowest) {
			name, lowest = c.name, c.bit
		}
	}
	if name == "" {
		return nil
	}
	return unrepresentableError(ev.Type, name)
}

func newRefWriter(w io.Writer, opts Options) *refWriter {
	opts = opts.withDefaults()
	r := &refWriter{
		bw:    bufio.NewWriterSize(w, 1<<16),
		opts:  opts,
		block: make([]telemetry.Event, 0, opts.BlockEvents),
		bufs:  make([][]byte, len(refCols)),
		prev:  make([]int64, len(refCols)),
		dicts: make([]smallDict, len(refCols)),
	}
	return r
}

func (w *refWriter) WriteEvent(ev telemetry.Event) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = telemetry.ErrClosedSink
		return w.err
	}
	w.block = append(w.block, ev)
	slot := &w.block[len(w.block)-1]
	if err := refUnrepresentable(slot); err != nil {
		w.block = w.block[:len(w.block)-1]
		w.err = err
		return w.err
	}
	w.n++
	if len(w.block) >= w.opts.BlockEvents {
		w.err = w.flushBlock()
	}
	return w.err
}

func (w *refWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if err := w.flushBlock(); err != nil {
		w.err = err
		return w.err
	}
	if err := w.writeFooter(); err != nil {
		w.err = err
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("binlog: flush: %w", err)
	}
	return w.err
}

func (w *refWriter) ensureHeader() error {
	if w.headerDone {
		return nil
	}
	w.headerDone = true
	if _, err := w.bw.WriteString(fileMagic); err != nil {
		return fmt.Errorf("binlog: write header: %w", err)
	}
	w.off += int64(len(fileMagic))
	return nil
}

func (w *refWriter) flushBlock() error {
	if len(w.block) == 0 {
		return nil
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	raw := w.encodeBlock()
	crc := crc32.ChecksumIEEE(raw)
	payload := raw
	codec := byte(codecStore)
	w.zle = zleCompressBytewise(w.zle, raw)
	if len(w.zle) < len(raw) {
		payload = w.zle
		codec = codecZLE
	}
	entry := indexEntry{off: w.off, events: int64(len(w.block)),
		firstT: w.block[0].T, lastT: w.block[len(w.block)-1].T}
	var hdr [2 + 2*binary.MaxVarintLen64 + 4]byte
	hdr[0] = tagBlock
	p := 1
	p += binary.PutUvarint(hdr[p:], uint64(len(raw)))
	hdr[p] = codec
	p++
	p += binary.PutUvarint(hdr[p:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[p:], crc)
	p += 4
	if _, err := w.bw.Write(hdr[:p]); err != nil {
		return fmt.Errorf("binlog: write block: %w", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return fmt.Errorf("binlog: write block: %w", err)
	}
	w.off += int64(p) + int64(len(payload))
	w.idx = append(w.idx, entry)
	w.block = w.block[:0]
	return nil
}

// encodeBlock is the second pass: one walk over the buffered events
// appending each field to its column's buffer, then the concatenation.
func (w *refWriter) encodeBlock() []byte {
	evs := w.block
	w.typeDict.reset()
	w.typeIdx = w.typeIdx[:0]
	w.tbuf = w.tbuf[:0]
	for c := range refCols {
		w.bufs[c] = w.bufs[c][:0]
		w.prev[c] = 0
		w.dicts[c].reset()
	}

	prevT, prevDelta := int64(0), int64(0)
	for i := range evs {
		ev := &evs[i]
		w.typeIdx = binary.AppendUvarint(w.typeIdx, w.typeDict.id(string(ev.Type)))
		t := int64(ev.T)
		if i == 0 {
			w.tbuf = binary.AppendUvarint(w.tbuf, zigzag(t))
		} else {
			delta := t - prevT
			w.tbuf = binary.AppendUvarint(w.tbuf, zigzag(delta-prevDelta))
			prevDelta = delta
		}
		prevT = t
		stored := refStored(ev.Type)
		for c, col := range refCols {
			switch {
			case stored&col.bit == 0:
			case col.str != nil:
				w.bufs[c] = binary.AppendUvarint(w.bufs[c], w.dicts[c].id(col.str(ev)))
			default:
				v := col.int(ev)
				if w.fault && ev.Type == telemetry.EvRequest && col.bit == telemetry.FVictim {
					v = 0
				}
				w.bufs[c] = binary.AppendUvarint(w.bufs[c], zigzag(v-w.prev[c]))
				w.prev[c] = v
			}
		}
	}

	buf := w.raw[:0]
	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	buf = appendDict(buf, w.typeDict.strs)
	buf = append(buf, w.typeIdx...)
	buf = append(buf, w.tbuf...)
	for c, col := range refCols {
		if col.str != nil {
			buf = appendDict(buf, w.dicts[c].strs)
		}
		buf = append(buf, w.bufs[c]...)
	}
	w.raw = buf
	return buf
}

func (w *refWriter) writeFooter() error {
	if err := w.ensureHeader(); err != nil {
		return err
	}
	idx := w.raw[:0]
	idx = binary.AppendUvarint(idx, uint64(len(w.idx)))
	prevOff := int64(0)
	prevFirstT := time.Duration(0)
	for _, e := range w.idx {
		idx = binary.AppendUvarint(idx, uint64(e.off-prevOff))
		idx = binary.AppendUvarint(idx, uint64(e.events))
		idx = binary.AppendUvarint(idx, zigzag(int64(e.firstT-prevFirstT)))
		idx = binary.AppendUvarint(idx, zigzag(int64(e.lastT-e.firstT)))
		prevOff, prevFirstT = e.off, e.firstT
	}
	w.raw = idx
	var lenBuf [binary.MaxVarintLen64]byte
	lenN := binary.PutUvarint(lenBuf[:], uint64(len(idx)))
	footerLen := 1 + lenN + len(idx) + 4
	if err := w.bw.WriteByte(tagFooter); err != nil {
		return fmt.Errorf("binlog: write footer: %w", err)
	}
	if _, err := w.bw.Write(lenBuf[:lenN]); err != nil {
		return fmt.Errorf("binlog: write footer: %w", err)
	}
	if _, err := w.bw.Write(idx); err != nil {
		return fmt.Errorf("binlog: write footer: %w", err)
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], crc32.ChecksumIEEE(idx))
	binary.LittleEndian.PutUint32(tail[4:], uint32(footerLen))
	if _, err := w.bw.Write(tail[:]); err != nil {
		return fmt.Errorf("binlog: write footer: %w", err)
	}
	if _, err := w.bw.WriteString(trailerMagic); err != nil {
		return fmt.Errorf("binlog: write footer: %w", err)
	}
	return nil
}

// zleCompressBytewise is the zero-run encoder as a byte-at-a-time loop: the
// reference for zleCompress's word-at-a-time scans.
func zleCompressBytewise(dst, src []byte) []byte {
	dst = dst[:0]
	n := len(src)
	for i := 0; i < n; {
		start := i
		for i < n && !(src[i] == 0 && i+1 < n && src[i+1] == 0) {
			i++
		}
		dst = binary.AppendUvarint(dst, uint64(i-start))
		dst = append(dst, src[start:i]...)
		if i >= n {
			break
		}
		zs := i
		for i < n && src[i] == 0 {
			i++
		}
		dst = binary.AppendUvarint(dst, uint64(i-zs))
	}
	return dst
}

// oracleOp is one write: an Event through WriteEvent/Emit, or (req) a
// request completion through WriteRequest/EmitRequest, whose arguments are
// ev's T, Dev, Kind, LPN, Pages and Latency.
type oracleOp struct {
	req bool
	ev  telemetry.Event
}

// oracleCase is one randomized stream for the differential sweep: writer
// options and a sequence of writes, possibly with one unrepresentable event
// somewhere in it.
type oracleCase struct {
	opts Options
	ops  []oracleOp
}

// oracleTypes is every known event type plus one the reader has never
// heard of (it carries every column).
var oracleTypes = append(append([]telemetry.EventType(nil), quickTypes...), "future_event")

func (oracleCase) Generate(rng *rand.Rand, size int) reflect.Value {
	c := oracleCase{opts: Options{BlockEvents: 1 + rng.Intn(300)}}
	n := rng.Intn(8*size + 1)
	t := time.Duration(rng.Int63n(int64(time.Hour)))
	for i := 0; i < n; i++ {
		// Mostly forward steps, sometimes backwards or large jumps: T is
		// delta-of-delta coded and must survive any ordering.
		switch rng.Intn(10) {
		case 0:
			t -= time.Duration(rng.Int63n(int64(time.Second)))
		case 1:
			t += time.Duration(rng.Int63n(1 << 50))
		default:
			t += time.Duration(rng.Int63n(int64(time.Millisecond)))
		}
		if rng.Intn(2) == 0 {
			c.ops = append(c.ops, oracleOp{req: true, ev: telemetry.Event{
				Type: telemetry.EvRequest, T: t, Dev: int(oracleInt(rng)),
				Kind: oracleString(rng), LPN: oracleInt(rng),
				Pages: int(oracleInt(rng)), Latency: time.Duration(oracleInt(rng)),
			}})
			continue
		}
		ty := oracleTypes[rng.Intn(len(oracleTypes))]
		ev := telemetry.Event{Type: ty, T: t}
		set := storedFields(ty)
		for s := set; s != 0; s &= s - 1 {
			if rng.Intn(3) != 0 { // a random populated subset, zeros included
				setField(&ev, s&-s, rng)
			}
		}
		c.ops = append(c.ops, oracleOp{ev: ev})
	}
	if len(c.ops) > 0 && rng.Intn(6) == 0 {
		// One unrepresentable event: a known type populating a field
		// outside its set.
		ty := quickTypes[rng.Intn(len(quickTypes))]
		outside := telemetry.FAll &^ storedFields(ty)
		var pick []telemetry.FieldSet
		for s := outside; s != 0; s &= s - 1 {
			pick = append(pick, s&-s)
		}
		ev := telemetry.Event{Type: ty, T: t}
		bit := pick[rng.Intn(len(pick))]
		for ev == (telemetry.Event{Type: ty, T: t}) {
			setField(&ev, bit, rng) // until the random value is non-zero
		}
		at := rng.Intn(len(c.ops))
		c.ops = append(c.ops[:at], append([]oracleOp{{ev: ev}}, c.ops[at:]...)...)
	}
	return reflect.ValueOf(c)
}

func oracleInt(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return -rng.Int63n(1 << 20)
	case 2:
		return rng.Int63() - rng.Int63() // full range, sign included
	default:
		return rng.Int63n(1 << 16)
	}
}

func oracleString(rng *rand.Rand) string { return quickStrings[rng.Intn(len(quickStrings))] }

// setField gives ev's field bit a random value (possibly zero): a bool
// field either value, a float field a special or an ordinary float.
func setField(ev *telemetry.Event, bit telemetry.FieldSet, rng *rand.Rand) {
	for _, col := range telemetry.Columns {
		if col.Bit != bit {
			continue
		}
		switch col.Kind {
		case telemetry.StringColumn:
			col.Set(ev, 0, oracleString(rng))
		case telemetry.BoolColumn:
			col.Set(ev, int64(rng.Intn(2)), "")
		case telemetry.FloatColumn:
			vals := []float64{0, 1, -0.5, math.NaN(), math.Inf(1), math.MaxFloat64, rng.NormFloat64()}
			col.Set(ev, int64(math.Float64bits(vals[rng.Intn(len(vals))])), "")
		default:
			col.Set(ev, oracleInt(rng), "")
		}
		return
	}
	panic(fmt.Sprintf("no column for bit %#x", uint32(bit)))
}

// oracleRun is the bytes one driver produced and the error it stopped on.
// When the stream failed, the driver's buffered bytes are flushed by hand so
// the comparison covers everything encoded before the sticky error.
type oracleRun struct {
	out   []byte
	err   error
	count int64
}

// runReference writes c through the two-pass reference, requests as
// Events.
func runReference(c oracleCase, fault bool) oracleRun {
	var buf bytes.Buffer
	w := newRefWriter(&buf, c.opts)
	w.fault = fault
	var err error
	for _, op := range c.ops {
		if err = w.WriteEvent(op.ev); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Close()
	} else {
		w.bw.Flush()
	}
	return oracleRun{buf.Bytes(), err, w.n}
}

// runWriter writes c through Writer's WriteEvent and WriteRequest.
func runWriter(c oracleCase) oracleRun {
	var buf bytes.Buffer
	w := NewWriter(&buf, c.opts)
	var err error
	for _, op := range c.ops {
		if op.req {
			err = w.WriteRequest(op.ev.T, op.ev.Dev, op.ev.Kind, op.ev.LPN, op.ev.Pages, op.ev.Latency)
		} else {
			err = w.WriteEvent(op.ev)
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Close()
	} else {
		w.bw.Flush()
	}
	return oracleRun{buf.Bytes(), err, w.Count()}
}

// runSink writes c through BinSink's Emit and EmitRequest.
func runSink(c oracleCase) oracleRun {
	var buf bytes.Buffer
	s := NewBinSink(&buf, c.opts)
	for _, op := range c.ops {
		if op.req {
			s.EmitRequest(op.ev.T, op.ev.Dev, op.ev.Kind, op.ev.LPN, op.ev.Pages, op.ev.Latency)
		} else {
			s.Emit(op.ev)
		}
	}
	if s.err != nil {
		s.w.bw.Flush()
	}
	err := s.Close()
	return oracleRun{buf.Bytes(), err, s.Count()}
}

// sameRun compares a driver's run with the reference's, logging the first
// difference through logf.
func sameRun(logf func(string, ...any), name string, got, want oracleRun) bool {
	if !bytes.Equal(got.out, want.out) {
		logf("%s: %d bytes vs reference %d, first divergence at byte %d", name, len(got.out), len(want.out), firstDiff(got.out, want.out))
		return false
	}
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) || got.count != want.count {
		logf("%s: err %v count %d, reference err %v count %d", name, got.err, got.count, want.err, want.count)
		return false
	}
	return true
}

// decodesBack is the round-trip half of the sweep: a stream the writer
// closed cleanly must decode to exactly the events it was given, as written
// and with every block reframed as stored. A stream the writer refused has
// no footer and is not a stream to read back.
func decodesBack(logf func(string, ...any), c oracleCase, run oracleRun) bool {
	if run.err != nil {
		return true
	}
	stored, err := storedCopy(run.out)
	if err != nil {
		logf("reframe an accepted stream: %v", err)
		return false
	}
	for _, stream := range [][]byte{run.out, stored} {
		got, err := Decode(bytes.NewReader(stream))
		if err != nil {
			logf("Decode of an accepted stream: %v", err)
			return false
		}
		if len(got) != len(c.ops) {
			logf("accepted %d events, decoded %d", len(c.ops), len(got))
			return false
		}
		for i, op := range c.ops {
			if !sameEvent(got[i], op.ev) {
				logf("event %d decoded as %+v, written as %+v", i, got[i], op.ev)
				return false
			}
		}
	}
	return true
}

// sameEvent is event equality with the float fields compared bit for bit,
// so a NaN that round-trips counts as equal to itself.
func sameEvent(a, b telemetry.Event) bool {
	if math.Float64bits(a.IdleFraction) != math.Float64bits(b.IdleFraction) ||
		math.Float64bits(a.WAF) != math.Float64bits(b.WAF) {
		return false
	}
	a.IdleFraction, a.WAF = 0, 0
	b.IdleFraction, b.WAF = 0, 0
	return a == b
}

// oracleProperty holds Writer (through both entry points) and BinSink to
// the reference's bytes on one case, and requires what the writer accepted
// to decode back.
func oracleProperty(logf func(string, ...any), fault bool) func(oracleCase) bool {
	return func(c oracleCase) bool {
		want := runReference(c, fault)
		got := runWriter(c)
		return sameRun(logf, "Writer", got, want) && sameRun(logf, "BinSink", runSink(c), want) &&
			decodesBack(logf, c, got)
	}
}

// storedEvent is an event alone in its block that the zero-run codec cannot
// shrink: an unknown type, so every column is stored, with every value
// non-zero, so its raw payload holds no two adjacent zero bytes.
func storedEvent(t time.Duration) telemetry.Event {
	ev := telemetry.Event{Type: "future_event", T: t}
	for i, col := range telemetry.Columns {
		col.Set(&ev, int64(i+1)<<20+int64(t), "s")
	}
	return ev
}

// TestWriterMatchesTwoPassReference is the differential oracle for the
// column-form writer: random streams over every event type (plus an unknown
// one) with random populated subsets, block sizes 1–300, requests mixed in
// through WriteRequest/EmitRequest, and now and then an unrepresentable
// event mid-block must produce exactly the reference's bytes, error and
// count; and every stream the writer accepts whole must decode back to the
// events written, zero-run coded and reframed as stored. One fixed case of
// incompressible blocks holds the writer's store fallback to the reference.
func TestWriterMatchesTwoPassReference(t *testing.T) {
	stored := oracleCase{opts: Options{BlockEvents: 1}}
	for i := 1; i <= 3; i++ {
		stored.ops = append(stored.ops, oracleOp{ev: storedEvent(time.Duration(i))})
	}
	if !oracleProperty(t.Logf, false)(stored) {
		t.Fatal("incompressible blocks diverge from the reference")
	}
	// A stream whose blocks are all stored is its own stored copy.
	out := runWriter(stored).out
	if cp, err := storedCopy(out); err != nil || !bytes.Equal(cp, out) {
		t.Fatalf("the writer zero-run coded an incompressible block (err %v)", err)
	}
	cfg := &quick.Config{MaxCount: 300}
	if testing.Short() {
		cfg.MaxCount = 60
	}
	if err := quick.Check(oracleProperty(t.Logf, false), cfg); err != nil {
		t.Error(err)
	}
}

// TestWriterOracleCatchesFault runs the same sweep against a reference with
// an injected fault (request events lose their victim column value, which
// only hand-built request Events carry) and requires the sweep to notice.
func TestWriterOracleCatchesFault(t *testing.T) {
	quiet := func(string, ...any) {} // the expected mismatch is not news
	err := quick.Check(oracleProperty(quiet, true), &quick.Config{MaxCount: 300})
	var ce *quick.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("sweep did not detect the injected fault (err = %v)", err)
	}
}

// TestOracleCoversRejectedEvents pins the sweep's generator to the cases it
// promises: some streams stop on an unrepresentable event with blocks
// already flushed, and the writers agree with the reference there too.
func TestOracleCoversRejectedEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rejected := 0
	for i := 0; i < 200 && rejected < 5; i++ {
		c := oracleCase{}.Generate(rng, 100).Interface().(oracleCase)
		want := runReference(c, false)
		if want.err == nil || want.count < int64(c.opts.BlockEvents) {
			continue
		}
		rejected++
		if !sameRun(t.Logf, "Writer", runWriter(c), want) || !sameRun(t.Logf, "BinSink", runSink(c), want) {
			t.Fatalf("case %d diverged after a rejected event", i)
		}
	}
	if rejected < 5 {
		t.Fatalf("generator produced %d mid-stream rejections with a flushed block, want 5", rejected)
	}
}

// TestZLEWordScanMatchesBytewise holds the word-at-a-time zero-run encoder
// to the byte loop on random payloads dense in zeros, with runs of every
// length placed across 8-byte boundaries.
func TestZLEWordScanMatchesBytewise(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, int(size)%600)
		for i := 0; i < len(src); {
			run := 1 + rng.Intn(20)
			zero := rng.Intn(3) != 0
			for j := 0; j < run && i < len(src); j, i = j+1, i+1 {
				if !zero {
					src[i] = byte(1 + rng.Intn(255))
					if rng.Intn(5) == 0 {
						src[i] = 0 // lone zeros inside literal runs
					}
				}
			}
		}
		got, want := zleCompress(nil, src), zleCompressBytewise(nil, src)
		if !bytes.Equal(got, want) {
			t.Logf("%d-byte input %v: word scan %v, byte loop %v", len(src), src, got, want)
			return false
		}
		back, err := zleDecompress(nil, got, len(src), crc32.ChecksumIEEE(src))
		return err == nil && bytes.Equal(back, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Every placement of a two-byte zero pair and a zero run in a 24-byte
	// window: each word boundary crossed at each offset.
	for at := 0; at < 23; at++ {
		for run := 1; at+run <= 24; run++ {
			src := bytes.Repeat([]byte{7}, 24)
			clear(src[at : at+run])
			if got, want := zleCompress(nil, src), zleCompressBytewise(nil, src); !bytes.Equal(got, want) {
				t.Fatalf("zero run [%d,%d): word scan %v, byte loop %v", at, at+run, got, want)
			}
		}
	}
}
