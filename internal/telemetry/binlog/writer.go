package binlog

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sync"
	"time"

	"jitgc/internal/telemetry"
)

// Options tunes a Writer. The zero value is ready to use.
type Options struct {
	// BlockEvents is the number of events per compressed block (default
	// 4096). Larger blocks compress better and amortize framing; smaller
	// blocks seek at finer granularity.
	BlockEvents int
	// Level selects the block codec: 0 (the default) is the zero-run
	// encoder — nearly free and good enough on columnar deltas that the
	// encoder stays 5× ahead of the JSONL marshal; 1–9 are the DEFLATE
	// levels for archival streams (smaller, several times slower); and
	// StoreUncompressed disables compression entirely.
	Level int
}

// StoreUncompressed as Options.Level stores block payloads raw.
const StoreUncompressed = -1

// DefaultBlockEvents is the block size used when Options.BlockEvents is 0.
const DefaultBlockEvents = 4096

func (o Options) withDefaults() Options {
	if o.BlockEvents <= 0 {
		o.BlockEvents = DefaultBlockEvents
	}
	return o
}

// indexEntry is one block's footer-index record (absolute form).
type indexEntry struct {
	off    int64
	events int64
	firstT time.Duration
	lastT  time.Duration
}

// Writer encodes an event stream into the binlog format. It is not safe
// for concurrent use; BinSink provides the locked telemetry.Sink facade.
// All scratch state is reused across blocks, so steady-state writing does
// not allocate.
type Writer struct {
	bw   *bufio.Writer
	opts Options

	off int64 // bytes emitted so far; block offsets for the index
	idx []indexEntry
	n   int64

	headerDone bool
	closed     bool
	err        error

	// The pending block, kept in column form: an accepted event's type id,
	// T and fields are appended to their columns' buffers on arrival, so a
	// flush only concatenates the buffers in wire order, compresses and
	// frames.
	blockN           int
	firstT, lastT    time.Duration
	prevT, prevDelta int64 // T column state: delta-of-delta
	typeDict         smallDict
	typeIdx          []byte
	tbuf             []byte
	intBufs          [numIntCols][]byte
	intPrev          [numIntCols]int64
	strDicts         [numStrCols]smallDict
	strBufs          [numStrCols][]byte
	boolAcc          [numBoolCols]byte
	boolN            [numBoolCols]uint
	boolBufs         [numBoolCols][]byte
	floatWs          [numFloatCols]bitWriter
	floatSt          [numFloatCols]gorillaState

	// Flush scratch, reused (a frame header on the stack would escape
	// through the bufio write).
	hdr  [2 + 2*binary.MaxVarintLen64 + 4]byte
	raw  []byte
	comp bytes.Buffer // flate output
	zle  []byte       // zero-run output
	fw   *flate.Writer

	// Field-set cache for the last event type seen (streams cluster by
	// type, and telemetry.Fields is a map lookup).
	cachedType telemetry.EventType
	cachedSet  telemetry.FieldSet
	haveCached bool
}

// gorillaState is one float column's XOR-chain state within a block.
type gorillaState struct {
	prevBits    uint64
	lead, trail uint
	first       bool
}

// fieldsOfCached is fieldsOf through a one-entry cache: streams cluster by
// type, and the underlying telemetry.Fields map lookup is measurable at
// per-event rates.
func (w *Writer) fieldsOfCached(t telemetry.EventType) telemetry.FieldSet {
	if w.haveCached && t == w.cachedType {
		return w.cachedSet
	}
	set := fieldsOf(t)
	w.cachedType, w.cachedSet, w.haveCached = t, set, true
	return set
}

// NewWriter builds a Writer streaming into w. Close flushes the final
// partial block and the footer index; it does not close w.
func NewWriter(w io.Writer, opts Options) *Writer {
	opts = opts.withDefaults()
	wr := &Writer{
		bw:   bufio.NewWriterSize(w, 1<<16),
		opts: opts,
	}
	wr.resetBlock()
	if opts.Level > 0 {
		fw, err := flate.NewWriter(io.Discard, opts.Level)
		if err != nil {
			wr.err = fmt.Errorf("binlog: flate level %d: %w", opts.Level, err)
		}
		wr.fw = fw
	} else if opts.Level != 0 && opts.Level != StoreUncompressed {
		wr.err = fmt.Errorf("binlog: invalid level %d", opts.Level)
	}
	return wr
}

// smallDict interns strings to dense ids. Real columns hold a handful of
// distinct values (event types, request kinds, token actions), where a
// linear scan beats map hashing; a block with pathologically many distinct
// strings spills to a map.
type smallDict struct {
	strs []string
	m    map[string]uint64
}

const smallDictLinear = 16

func (d *smallDict) reset() {
	d.strs = d.strs[:0]
	d.m = nil
}

func (d *smallDict) id(s string) uint64 {
	if d.m == nil {
		for i, v := range d.strs {
			if v == s {
				return uint64(i)
			}
		}
		if len(d.strs) < smallDictLinear {
			d.strs = append(d.strs, s)
			return uint64(len(d.strs) - 1)
		}
		d.m = make(map[string]uint64, 2*smallDictLinear)
		for i, v := range d.strs {
			d.m[v] = uint64(i)
		}
	}
	if id, ok := d.m[s]; ok {
		return id
	}
	id := uint64(len(d.strs))
	d.strs = append(d.strs, s)
	d.m[s] = id
	return id
}

// WriteEvent appends one event to the stream. The first error is sticky.
func (w *Writer) WriteEvent(ev telemetry.Event) error { return w.writeEvent(&ev) }

// writeEvent is WriteEvent without the copy; ev does not escape.
func (w *Writer) writeEvent(ev *telemetry.Event) error {
	if err := w.ready(); err != nil {
		return err
	}
	// Validate before touching the block: a rejected event leaves no trace.
	set := w.fieldsOfCached(ev.Type)
	if extra := populated(ev) &^ set; extra != 0 {
		w.err = unrepresentableError(ev.Type, extra)
		return w.err
	}
	if ev.Type == telemetry.EvRequest {
		w.appendRequest(ev.T, ev.Dev, ev.Kind, ev.LPN, ev.Victim, ev.Page, ev.Pages, ev.Latency)
	} else {
		w.appendHead(ev.Type, ev.T)
		w.appendFields(ev, set)
	}
	return w.endEvent()
}

// WriteRequest appends a request completion — the event WriteEvent would
// write for telemetry.Event{Type: EvRequest, T: now, Dev: dev, Kind: kind,
// LPN: lpn, Pages: pages, Latency: latency}, byte for byte — without
// building the Event. The first error is sticky.
func (w *Writer) WriteRequest(now time.Duration, dev int, kind string, lpn int64, pages int, latency time.Duration) error {
	if err := w.ready(); err != nil {
		return err
	}
	w.appendRequest(now, dev, kind, lpn, 0, 0, pages, latency)
	return w.endEvent()
}

// ready reports the sticky error, recording ErrClosedSink for a write after
// Close.
func (w *Writer) ready() error {
	if w.err == nil && w.closed {
		w.err = telemetry.ErrClosedSink
	}
	return w.err
}

// appendRequest appends a request event's columns: the one encoder of
// request events, whether they arrive as an Event or as WriteRequest's
// arguments. Victim and page are always-stored columns, zero unless a
// hand-built Event sets them.
func (w *Writer) appendRequest(now time.Duration, dev int, kind string, lpn int64, victim, page, pages int, latency time.Duration) {
	w.appendHead(telemetry.EvRequest, now)
	w.putInt(slotDev, int64(dev))
	w.putInt(slotLPN, lpn)
	w.putInt(slotVictim, int64(victim))
	w.putInt(slotPage, int64(page))
	w.putInt(slotPages, int64(pages))
	w.putInt(slotLatency, int64(latency))
	w.putStr(slotKind, kind)
}

// appendHead appends an event's type id and T: zigzag(T₀) for a block's
// first event, zigzag delta-of-delta after.
func (w *Writer) appendHead(ty telemetry.EventType, t time.Duration) {
	w.typeIdx = binary.AppendUvarint(w.typeIdx, w.typeDict.id(string(ty)))
	v := int64(t)
	if w.blockN == 0 {
		w.firstT = t
		w.tbuf = binary.AppendUvarint(w.tbuf, zigzag(v))
	} else {
		delta := v - w.prevT
		w.tbuf = binary.AppendUvarint(w.tbuf, zigzag(delta-w.prevDelta))
		w.prevDelta = delta
	}
	w.prevT, w.lastT = v, t
}

// appendFields appends the fields in set, ev's stored field set, to their
// columns. Order across columns is immaterial (each has its own buffer).
func (w *Writer) appendFields(ev *telemetry.Event, set telemetry.FieldSet) {
	for s := set; s != 0; s &= s - 1 {
		switch s & -s {
		case telemetry.FDev:
			w.putInt(slotDev, int64(ev.Dev))
		case telemetry.FKind:
			w.putStr(slotKind, ev.Kind)
		case telemetry.FLPN:
			w.putInt(slotLPN, ev.LPN)
		case telemetry.FPages:
			w.putInt(slotPages, int64(ev.Pages))
		case telemetry.FLatency:
			w.putInt(slotLatency, int64(ev.Latency))
		case telemetry.FFreeBytes:
			w.putInt(slotFreeBytes, ev.FreeBytes)
		case telemetry.FReclaimBytes:
			w.putInt(slotReclaimBytes, ev.ReclaimBytes)
		case telemetry.FPredictedBytes:
			w.putInt(slotPredictedBytes, ev.PredictedBytes)
		case telemetry.FIdleFraction:
			w.putFloat(slotIdleFraction, ev.IdleFraction)
		case telemetry.FForeground:
			w.putBool(slotForeground, ev.Foreground)
		case telemetry.FVictim:
			w.putInt(slotVictim, int64(ev.Victim))
		case telemetry.FValidPages:
			w.putInt(slotValidPages, int64(ev.ValidPages))
		case telemetry.FSIPPages:
			w.putInt(slotSIPPages, int64(ev.SIPPages))
		case telemetry.FFreedPages:
			w.putInt(slotFreedPages, ev.FreedPages)
		case telemetry.FElapsed:
			w.putInt(slotElapsed, int64(ev.Elapsed))
		case telemetry.FEraseCount:
			w.putInt(slotEraseCount, ev.EraseCount)
		case telemetry.FAction:
			w.putStr(slotAction, ev.Action)
		case telemetry.FOp:
			w.putStr(slotOp, ev.Op)
		case telemetry.FPage:
			w.putInt(slotPage, int64(ev.Page))
		case telemetry.FAttempts:
			w.putInt(slotAttempts, int64(ev.Attempts))
		case telemetry.FRecovered:
			w.putBool(slotRecovered, ev.Recovered)
		case telemetry.FReason:
			w.putStr(slotReason, ev.Reason)
		case telemetry.FTenant:
			w.putInt(slotTenant, int64(ev.Tenant))
		case telemetry.FClass:
			w.putStr(slotClass, ev.Class)
		case telemetry.FDropped:
			w.putInt(slotDropped, ev.Dropped)
		case telemetry.FViolations:
			w.putInt(slotViolations, ev.Violations)
		case telemetry.FDirtyPages:
			w.putInt(slotDirtyPages, int64(ev.DirtyPages))
		case telemetry.FWAF:
			w.putFloat(slotWAF, ev.WAF)
		case telemetry.FFGC:
			w.putInt(slotFGC, ev.FGCInvocations)
		case telemetry.FBGC:
			w.putInt(slotBGC, ev.BGCCollections)
		case telemetry.FRequests:
			w.putInt(slotRequests, ev.Requests)
		}
	}
}

// endEvent counts the event just appended and flushes a full block.
func (w *Writer) endEvent() error {
	w.n++
	if w.blockN++; w.blockN >= w.opts.BlockEvents {
		w.err = w.flushBlock()
	}
	return w.err
}

// Count returns the number of events accepted so far.
func (w *Writer) Count() int64 { return w.n }

// Close flushes the partial block and writes the footer index. It is
// idempotent and reports the first error of the writer's lifetime.
func (w *Writer) Close() error {
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

func (w *Writer) ensureHeader() error {
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

// flushBlock compresses and frames the pending block.
func (w *Writer) flushBlock() error {
	if w.blockN == 0 {
		return nil
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	raw := w.concatBlock()
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
		w.zle = zleCompress(w.zle, raw)
		if len(w.zle) < len(raw) {
			payload = w.zle
			codec = codecZLE
		}
	}

	entry := indexEntry{off: w.off, events: int64(w.blockN), firstT: w.firstT, lastT: w.lastT}

	hdr := &w.hdr
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
	w.resetBlock()
	return nil
}

// concatBlock joins the pending block's columns into the reused raw buffer
// in wire order: count, type column, T, ints, strings, bools, floats.
func (w *Writer) concatBlock() []byte {
	buf := w.raw[:0]
	buf = binary.AppendUvarint(buf, uint64(w.blockN))
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
		buf = append(buf, w.boolBufs[c]...)
		if w.boolN[c] > 0 {
			buf = append(buf, w.boolAcc[c]<<(8-w.boolN[c]))
		}
	}
	for c := range w.floatWs {
		fb := w.floatWs[c].finish()
		buf = binary.AppendUvarint(buf, uint64(len(fb)))
		buf = append(buf, fb...)
	}
	w.raw = buf
	return buf
}

// resetBlock empties the column state for the next block, keeping every
// buffer's storage.
func (w *Writer) resetBlock() {
	w.blockN = 0
	w.prevT, w.prevDelta = 0, 0
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
}

// putInt appends v to int column slot: zigzag delta against the previous
// value in the column (runs of equal values — erase counts, stats
// counters — cost one byte each).
func (w *Writer) putInt(slot int, v int64) {
	d := v - w.intPrev[slot]
	w.intPrev[slot] = v
	w.intBufs[slot] = binary.AppendUvarint(w.intBufs[slot], zigzag(d))
}

// putStr appends s to string column slot as a dictionary index.
func (w *Writer) putStr(slot int, s string) {
	w.strBufs[slot] = binary.AppendUvarint(w.strBufs[slot], w.strDicts[slot].id(s))
}

// putBool appends v to bool column slot, bit-packed MSB first.
func (w *Writer) putBool(slot int, v bool) {
	w.boolAcc[slot] <<= 1
	if v {
		w.boolAcc[slot] |= 1
	}
	if w.boolN[slot]++; w.boolN[slot] == 8 {
		w.boolBufs[slot] = append(w.boolBufs[slot], w.boolAcc[slot])
		w.boolAcc[slot], w.boolN[slot] = 0, 0
	}
}

// putFloat appends v to float column slot's Gorilla XOR bitstream.
func (w *Writer) putFloat(slot int, v float64) {
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
		// Fits the previous significant window: reuse it.
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

// writeFooter emits the seekable block index and the fixed trailer.
func (w *Writer) writeFooter() error {
	if err := w.ensureHeader(); err != nil {
		return err // header even for an empty stream, so readers accept it
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

// appendDict serializes a string dictionary: count, then length-prefixed
// entries.
func appendDict(buf []byte, strs []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(strs)))
	for _, s := range strs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// BinSink is the telemetry.Sink facade over a Writer: concurrent-safe
// emits, sticky first error, idempotent Close that also closes the
// underlying writer when it is an io.Closer — the same contract as
// telemetry.JSONLSink, at zero allocations per event in steady state.
// EmitRequest is the request-completion fast path telemetry.Tracer detects.
type BinSink struct {
	mu     sync.Mutex
	w      *Writer
	c      io.Closer
	closed bool
	err    error
}

// NewBinSink wraps w in a binlog event stream. If w is also an io.Closer
// it is closed by Close.
func NewBinSink(w io.Writer, opts Options) *BinSink {
	s := &BinSink{w: NewWriter(w, opts)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements telemetry.Sink. Delivery errors are sticky and surface
// at Close.
func (s *BinSink) Emit(ev telemetry.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.accepting() {
		s.err = s.w.writeEvent(&ev)
	}
}

// EmitRequest records a request completion exactly as Emit would record
// the equivalent EvRequest Event, without building one.
func (s *BinSink) EmitRequest(now time.Duration, dev int, kind string, lpn int64, pages int, latency time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.accepting() {
		s.err = s.w.WriteRequest(now, dev, kind, lpn, pages, latency)
	}
}

// accepting reports whether an emit may reach the writer; an emit after
// Close records ErrClosedSink instead.
func (s *BinSink) accepting() bool {
	if s.closed && s.err == nil {
		s.err = telemetry.ErrClosedSink
	}
	return s.err == nil
}

// Count returns the number of events accepted so far.
func (s *BinSink) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Count()
}

// Close implements telemetry.Sink; it is idempotent.
func (s *BinSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if cerr := s.w.Close(); s.err == nil && cerr != nil {
		s.err = cerr
	}
	if s.c != nil {
		cerr := s.c.Close()
		s.c = nil
		if s.err == nil && cerr != nil {
			s.err = fmt.Errorf("binlog: close: %w", cerr)
		}
	}
	return s.err
}
