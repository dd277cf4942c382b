package binlog

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
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
	comp     bytes.Buffer
	zle      []byte
	fw       *flate.Writer
	typeDict smallDict
	typeIdx  []byte
	tbuf     []byte
	intBufs  [][]byte
	intPrev  []int64
	strDicts []smallDict
	strBufs  [][]byte
	boolAcc  []byte
	boolN    []uint
	boolBufs [][]byte
	floatWs  []bitWriter
	floatSt  []gorillaState
}

// Reference column getters, by column index in the wire tables: the
// accessors the two-pass encoder read events through.
var (
	refIntGet = [numIntCols]func(*telemetry.Event) int64{
		func(e *telemetry.Event) int64 { return int64(e.Dev) },
		func(e *telemetry.Event) int64 { return e.LPN },
		func(e *telemetry.Event) int64 { return int64(e.Victim) },
		func(e *telemetry.Event) int64 { return int64(e.Page) },
		func(e *telemetry.Event) int64 { return int64(e.Pages) },
		func(e *telemetry.Event) int64 { return int64(e.Latency) },
		func(e *telemetry.Event) int64 { return e.FreeBytes },
		func(e *telemetry.Event) int64 { return e.ReclaimBytes },
		func(e *telemetry.Event) int64 { return e.PredictedBytes },
		func(e *telemetry.Event) int64 { return int64(e.ValidPages) },
		func(e *telemetry.Event) int64 { return int64(e.SIPPages) },
		func(e *telemetry.Event) int64 { return e.FreedPages },
		func(e *telemetry.Event) int64 { return int64(e.Elapsed) },
		func(e *telemetry.Event) int64 { return e.EraseCount },
		func(e *telemetry.Event) int64 { return int64(e.Attempts) },
		func(e *telemetry.Event) int64 { return int64(e.Tenant) },
		func(e *telemetry.Event) int64 { return e.Dropped },
		func(e *telemetry.Event) int64 { return e.Violations },
		func(e *telemetry.Event) int64 { return int64(e.DirtyPages) },
		func(e *telemetry.Event) int64 { return e.FGCInvocations },
		func(e *telemetry.Event) int64 { return e.BGCCollections },
		func(e *telemetry.Event) int64 { return e.Requests },
	}
	refStrGet = [numStrCols]func(*telemetry.Event) string{
		func(e *telemetry.Event) string { return e.Kind },
		func(e *telemetry.Event) string { return e.Action },
		func(e *telemetry.Event) string { return e.Op },
		func(e *telemetry.Event) string { return e.Reason },
		func(e *telemetry.Event) string { return e.Class },
	}
	refBoolGet = [numBoolCols]func(*telemetry.Event) bool{
		func(e *telemetry.Event) bool { return e.Foreground },
		func(e *telemetry.Event) bool { return e.Recovered },
	}
	refFloatGet = [numFloatCols]func(*telemetry.Event) float64{
		func(e *telemetry.Event) float64 { return e.IdleFraction },
		func(e *telemetry.Event) float64 { return e.WAF },
	}
)

// Reference dispatch tables: field bit position to column kind and slot.
const (
	colInt = iota
	colStr
	colBool
	colFloat
)

var refColKind, refColSlot [32]uint8

func init() {
	idx := func(bit telemetry.FieldSet) int { return bits.TrailingZeros32(uint32(bit)) }
	for i, c := range intCols {
		refColKind[idx(c.bit)], refColSlot[idx(c.bit)] = colInt, uint8(i)
	}
	for i, c := range strCols {
		refColKind[idx(c.bit)], refColSlot[idx(c.bit)] = colStr, uint8(i)
	}
	for i, c := range boolCols {
		refColKind[idx(c.bit)], refColSlot[idx(c.bit)] = colBool, uint8(i)
	}
	for i, c := range floatCols {
		refColKind[idx(c.bit)], refColSlot[idx(c.bit)] = colFloat, uint8(i)
	}
}

func newRefWriter(w io.Writer, opts Options) *refWriter {
	opts = opts.withDefaults()
	r := &refWriter{
		bw:       bufio.NewWriterSize(w, 1<<16),
		opts:     opts,
		block:    make([]telemetry.Event, 0, opts.BlockEvents),
		intBufs:  make([][]byte, numIntCols),
		intPrev:  make([]int64, numIntCols),
		strDicts: make([]smallDict, numStrCols),
		strBufs:  make([][]byte, numStrCols),
		boolAcc:  make([]byte, numBoolCols),
		boolN:    make([]uint, numBoolCols),
		boolBufs: make([][]byte, numBoolCols),
		floatWs:  make([]bitWriter, numFloatCols),
		floatSt:  make([]gorillaState, numFloatCols),
	}
	if opts.Level > 0 {
		fw, err := flate.NewWriter(io.Discard, opts.Level)
		if err != nil {
			r.err = fmt.Errorf("binlog: flate level %d: %w", opts.Level, err)
		}
		r.fw = fw
	} else if opts.Level != 0 && opts.Level != StoreUncompressed {
		r.err = fmt.Errorf("binlog: invalid level %d", opts.Level)
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
	if extra := populated(slot) &^ fieldsOf(slot.Type); extra != 0 {
		w.block = w.block[:len(w.block)-1]
		w.err = unrepresentableError(slot.Type, extra)
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
	switch {
	case w.opts.Level == StoreUncompressed:
	case w.opts.Level > 0:
		w.comp.Reset()
		w.fw.Reset(&w.comp)
		if _, err := w.fw.Write(raw); err != nil {
			return fmt.Errorf("binlog: compress block: %w", err)
		}
		if err := w.fw.Close(); err != nil {
			return fmt.Errorf("binlog: compress block: %w", err)
		}
		if w.comp.Len() < len(raw) {
			payload = w.comp.Bytes()
			codec = codecFlate
		}
	default:
		w.zle = zleCompressBytewise(w.zle, raw)
		if len(w.zle) < len(raw) {
			payload = w.zle
			codec = codecZLE
		}
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
	for i := range w.intBufs {
		w.intBufs[i] = w.intBufs[i][:0]
		w.intPrev[i] = 0
	}
	for i := range w.strBufs {
		w.strBufs[i] = w.strBufs[i][:0]
		w.strDicts[i].reset()
	}
	for i := range w.boolBufs {
		w.boolBufs[i] = w.boolBufs[i][:0]
		w.boolAcc[i], w.boolN[i] = 0, 0
	}
	for i := range w.floatWs {
		w.floatWs[i].reset(w.floatWs[i].buf)
		w.floatSt[i] = gorillaState{first: true, lead: ^uint(0), trail: ^uint(0)}
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
		fset := fieldsOf(ev.Type)
		for s := uint32(fset); s != 0; s &= s - 1 {
			pos := bits.TrailingZeros32(s)
			slot := int(refColSlot[pos])
			switch refColKind[pos] {
			case colInt:
				v := refIntGet[slot](ev)
				if w.fault && ev.Type == telemetry.EvRequest && intCols[slot].bit == telemetry.FVictim {
					v = 0
				}
				w.putInt(slot, v)
			case colStr:
				w.putStr(slot, refStrGet[slot](ev))
			case colBool:
				w.putBool(slot, refBoolGet[slot](ev))
			default:
				w.putFloat(slot, refFloatGet[slot](ev))
			}
		}
	}

	buf := w.raw[:0]
	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	buf = appendDict(buf, w.typeDict.strs)
	buf = append(buf, w.typeIdx...)
	buf = append(buf, w.tbuf...)
	for i := range w.intBufs {
		buf = append(buf, w.intBufs[i]...)
	}
	for c := range w.strBufs {
		buf = appendDict(buf, w.strDicts[c].strs)
		buf = append(buf, w.strBufs[c]...)
	}
	for c := range w.boolBufs {
		if w.boolN[c] > 0 {
			w.boolBufs[c] = append(w.boolBufs[c], w.boolAcc[c]<<(8-w.boolN[c]))
		}
		buf = append(buf, w.boolBufs[c]...)
	}
	for c := range w.floatWs {
		fb := w.floatWs[c].finish()
		buf = binary.AppendUvarint(buf, uint64(len(fb)))
		buf = append(buf, fb...)
	}
	w.raw = buf
	return buf
}

func (w *refWriter) putInt(slot int, v int64) {
	d := v - w.intPrev[slot]
	w.intPrev[slot] = v
	w.intBufs[slot] = binary.AppendUvarint(w.intBufs[slot], zigzag(d))
}

func (w *refWriter) putStr(slot int, s string) {
	w.strBufs[slot] = binary.AppendUvarint(w.strBufs[slot], w.strDicts[slot].id(s))
}

func (w *refWriter) putBool(slot int, v bool) {
	w.boolAcc[slot] <<= 1
	if v {
		w.boolAcc[slot] |= 1
	}
	if w.boolN[slot]++; w.boolN[slot] == 8 {
		w.boolBufs[slot] = append(w.boolBufs[slot], w.boolAcc[slot])
		w.boolAcc[slot], w.boolN[slot] = 0, 0
	}
}

func (w *refWriter) putFloat(slot int, v float64) {
	bw := &w.floatWs[slot]
	st := &w.floatSt[slot]
	b := math.Float64bits(v)
	if st.first {
		bw.write64(b, 64)
		st.prevBits, st.first = b, false
		return
	}
	xor := b ^ st.prevBits
	st.prevBits = b
	if xor == 0 {
		bw.writeBits(0, 1)
		return
	}
	bw.writeBits(1, 1)
	lead := uint(min(bits.LeadingZeros64(xor), 31))
	trail := uint(bits.TrailingZeros64(xor))
	if st.lead != ^uint(0) && lead >= st.lead && trail >= st.trail {
		bw.writeBits(0, 1)
		bw.write64(xor>>st.trail, 64-st.lead-st.trail)
	} else {
		bw.writeBits(1, 1)
		bw.writeBits(uint64(lead), 5)
		sig := 64 - lead - trail
		bw.writeBits(uint64(sig-1), 6)
		bw.write64(xor>>trail, sig)
		st.lead, st.trail = lead, trail
	}
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
	levels := []int{0, 0, StoreUncompressed, 1 + rng.Intn(9)}
	c := oracleCase{opts: Options{BlockEvents: 1 + rng.Intn(300), Level: levels[rng.Intn(len(levels))]}}
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
		set := fieldsOf(ty)
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
		outside := telemetry.FAll &^ fieldsOf(ty)
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

// setField gives ev's field bit a random value (possibly zero).
func setField(ev *telemetry.Event, bit telemetry.FieldSet, rng *rand.Rand) {
	for i := range intCols {
		if intCols[i].bit == bit {
			intCols[i].set(ev, oracleInt(rng))
			return
		}
	}
	for i := range strCols {
		if strCols[i].bit == bit {
			strCols[i].set(ev, oracleString(rng))
			return
		}
	}
	for i := range boolCols {
		if boolCols[i].bit == bit {
			boolCols[i].set(ev, rng.Intn(2) == 0)
			return
		}
	}
	for i := range floatCols {
		if floatCols[i].bit == bit {
			vals := []float64{0, 1, -0.5, math.NaN(), math.Inf(1), math.MaxFloat64, rng.NormFloat64()}
			floatCols[i].set(ev, vals[rng.Intn(len(vals))])
			return
		}
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

// oracleProperty holds Writer (through both entry points) and BinSink to
// the reference's bytes on one case.
func oracleProperty(logf func(string, ...any), fault bool) func(oracleCase) bool {
	return func(c oracleCase) bool {
		want := runReference(c, fault)
		return sameRun(logf, "Writer", runWriter(c), want) && sameRun(logf, "BinSink", runSink(c), want)
	}
}

// TestWriterMatchesTwoPassReference is the differential oracle for the
// column-form writer: random streams over every event type (plus an unknown
// one) with random populated subsets, block sizes 1–300, all three codecs,
// requests mixed in through WriteRequest/EmitRequest, and now and then an
// unrepresentable event mid-block must produce exactly the reference's
// bytes, error and count.
func TestWriterMatchesTwoPassReference(t *testing.T) {
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
