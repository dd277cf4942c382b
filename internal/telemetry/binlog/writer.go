package binlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"jitgc/internal/telemetry"
)

// ErrBlockTooLarge is the writer's sticky error for a block the reader
// would reject as implausible: more than 2²⁴ events (Options.BlockEvents
// past that limit fails before any block is written), or a raw payload
// past 256 MiB. The writer refuses it before writing it, so a stream the
// writer closes cleanly is one Decode reads back.
var ErrBlockTooLarge = errors.New("binlog: block exceeds the reader's size limits")

// Options tunes a Writer. The zero value is ready to use.
type Options struct {
	// BlockEvents is the number of events per block (default 4096, at
	// most 2²⁴). Larger blocks compress better and amortize framing;
	// smaller blocks hold less in the writer and lose less to a crash.
	BlockEvents int
}

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
	// frames. The per-column state is indexed like telemetry.Columns; prev
	// serves the int columns and dicts the string ones.
	blockN           int
	firstT, lastT    time.Duration
	prevT, prevDelta int64 // T column state: delta-of-delta
	typeDict         smallDict
	typeIdx          []byte
	tbuf             []byte
	bufs             [len(telemetry.Columns)][]byte
	prev             [len(telemetry.Columns)]int64
	dicts            [len(telemetry.Columns)]smallDict

	// Flush scratch, reused (a frame header on the stack would escape
	// through the bufio write).
	hdr [2 + 2*binary.MaxVarintLen64 + 4]byte
	raw []byte
	zle []byte // zero-run output

	// Field-set cache for the last event type seen (streams cluster by
	// type, and telemetry.Fields is a map lookup).
	cachedType telemetry.EventType
	cachedSet  telemetry.FieldSet
	haveCached bool
}

// storedCached is storedFields through a one-entry cache: streams cluster
// by type, and the underlying telemetry.Fields map lookup is measurable at
// per-event rates.
func (w *Writer) storedCached(t telemetry.EventType) telemetry.FieldSet {
	if w.haveCached && t == w.cachedType {
		return w.cachedSet
	}
	set := storedFields(t)
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
	wr.err = blockTooLarge(opts.BlockEvents, 0)
	return wr
}

// blockTooLarge reports ErrBlockTooLarge for a block of events events and
// raw payload bytes that the reader would reject as implausible.
func blockTooLarge(events, raw int) error {
	switch {
	case events > maxBlockEvents:
		return fmt.Errorf("%w: %d events, limit %d", ErrBlockTooLarge, events, maxBlockEvents)
	case raw > maxBlockRaw:
		return fmt.Errorf("%w: %d raw payload bytes, limit %d", ErrBlockTooLarge, raw, maxBlockRaw)
	}
	return nil
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
	// Both walks step through set bits, not table rows, so a type's
	// columns cost no per-row branch.
	set := w.storedCached(ev.Type)
	for rest := telemetry.FAll &^ set; rest != 0; rest &= rest - 1 {
		if v, s := ev.Field(rest & -rest); v != 0 || s != "" {
			// rest's lowest bit is the lowest field bit at fault.
			w.err = unrepresentableError(ev.Type, telemetry.Columns[column(rest&-rest)].Name)
			return w.err
		}
	}
	w.appendHead(ev.Type, ev.T)
	for rest := set; rest != 0; rest &= rest - 1 {
		bit := rest & -rest
		c := column(bit)
		v, s := ev.Field(bit)
		if telemetry.Columns[c].Kind == telemetry.StringColumn {
			w.putStr(c, s)
		} else {
			w.putInt(c, v)
		}
	}
	return w.endEvent()
}

// The columns of a request event: WriteRequest stores them without
// building an Event.
var (
	colDev     = column(telemetry.FDev)
	colKind    = column(telemetry.FKind)
	colLPN     = column(telemetry.FLPN)
	colPages   = column(telemetry.FPages)
	colLatency = column(telemetry.FLatency)
	colVictim  = column(telemetry.FVictim)
	colPage    = column(telemetry.FPage)
)

// WriteRequest appends a request completion — the event WriteEvent would
// write for telemetry.Event{Type: EvRequest, T: now, Dev: dev, Kind: kind,
// LPN: lpn, Pages: pages, Latency: latency}, byte for byte — without
// building the Event: the request's stored columns, with the always-stored
// victim and page at zero. The first error is sticky.
func (w *Writer) WriteRequest(now time.Duration, dev int, kind string, lpn int64, pages int, latency time.Duration) error {
	if err := w.ready(); err != nil {
		return err
	}
	w.appendHead(telemetry.EvRequest, now)
	w.putInt(colDev, int64(dev))
	w.putStr(colKind, kind)
	w.putInt(colLPN, lpn)
	w.putInt(colPages, int64(pages))
	w.putInt(colLatency, int64(latency))
	w.putInt(colVictim, 0)
	w.putInt(colPage, 0)
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

// flushBlock compresses and frames the pending block: zero-run coded, or
// stored when that does not shrink it.
func (w *Writer) flushBlock() error {
	if w.blockN == 0 {
		return nil
	}
	raw := w.concatBlock()
	if err := blockTooLarge(w.blockN, len(raw)); err != nil {
		return err
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	crc := crc32.ChecksumIEEE(raw)

	payload := raw
	codec := byte(codecStore)
	if w.zle = zleCompress(w.zle, raw); len(w.zle) < len(raw) {
		payload = w.zle
		codec = codecZLE
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
// in wire order: count, type column, T, then the columns in wireOrder, each
// string column behind its dictionary.
func (w *Writer) concatBlock() []byte {
	buf := w.raw[:0]
	buf = binary.AppendUvarint(buf, uint64(w.blockN))
	buf = appendDict(buf, w.typeDict.strs)
	buf = append(buf, w.typeIdx...)
	buf = append(buf, w.tbuf...)
	for _, c := range wireOrder {
		if telemetry.Columns[c].Kind == telemetry.StringColumn {
			buf = appendDict(buf, w.dicts[c].strs)
		}
		buf = append(buf, w.bufs[c]...)
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
	for c := range w.bufs {
		w.bufs[c] = w.bufs[c][:0]
		w.prev[c] = 0
		w.dicts[c].reset()
	}
}

// putInt appends v to int column c: zigzag delta against the previous
// value in the column (runs of equal values — erase counts, stats
// counters, GC episodes' foreground flags — cost one byte each).
func (w *Writer) putInt(c int, v int64) {
	d := v - w.prev[c]
	w.prev[c] = v
	w.bufs[c] = binary.AppendUvarint(w.bufs[c], zigzag(d))
}

// putStr appends s to string column c as a dictionary index.
func (w *Writer) putStr(c int, s string) {
	w.bufs[c] = binary.AppendUvarint(w.bufs[c], w.dicts[c].id(s))
}

// writeFooter emits the footer block index and the fixed trailer.
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
