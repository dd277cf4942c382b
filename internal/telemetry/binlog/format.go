// Package binlog is the compact, seekable, block-compressed columnar
// encoding for telemetry.Event streams (DESIGN.md §12). JSONL traces parse
// slower than the simulator produces them once runs reach 10⁸ events; this
// format borrows the Gorilla/mebo column techniques — delta-of-delta
// timestamps, per-column encoders chosen by field type — so a trace costs a
// few bytes per event instead of a hundred, and encodes in a fraction of
// the JSONL marshal time.
//
// Layout (all multi-byte scalars little-endian, varints are unsigned
// LEB128, signed values zigzag-folded first):
//
//	"JGB1"                        file magic + version
//	repeated block records:
//	  0x01 tag
//	  uvarint rawLen              payload size before compression
//	  byte    codec               0 stored, 1 DEFLATE, 2 zero-run
//	  uvarint payloadLen          compressed size (= rawLen when stored)
//	  uint32  crc                 IEEE CRC-32 of the raw payload
//	  payload
//	footer record:
//	  0x02 tag
//	  uvarint indexLen
//	  index: uvarint blockCount, then per block
//	    uvarint offsetΔ           file offset of the block tag (Δ from prev)
//	    uvarint events
//	    varint  firstTΔ           Δ from previous block's firstT
//	    varint  lastTΔ            Δ from this block's firstT
//	  uint32 crc                  of the index bytes
//	  uint32 footerLen            bytes from the 0x02 tag through the crc
//	  "JGBX"                      trailer magic
//
// The trailing (footerLen, magic) pair lets a seekable reader load the
// index from the end of the file without scanning it, then binary-search
// blocks by timestamp; per-member files merge with a k-way walk over their
// readers.
//
// A block's raw payload is columnar:
//
//	uvarint n                     event count
//	type column                   per-block dictionary + n indices
//	T column                      zigzag(T₀), then zigzag delta-of-delta
//	22 int columns                zigzag delta vs previous value in column
//	5 string columns              per-block dictionary + indices
//	2 bool columns                bit-packed
//	2 float columns               Gorilla XOR bitstream (length-prefixed)
//
// A column stores one value per event whose type's field set
// (telemetry.Fields) contains the column's field; Dev, LPN, Victim, and
// Page are stored for every event because their zeros are explicit in the
// JSONL encoding too. Presence is therefore a pure function of the type
// column, which is what makes the format byte-faithfully convertible to
// and from JSONL.
//
// The default block codec is the zero-run encoder: columnar deltas leave
// long runs of zero bytes (idle columns, repeated values), and squeezing
// just those runs captures most of DEFLATE's win at a tenth of its CPU
// cost — which is what lets the encoder beat the JSONL marshal by the
// gated 5×. DEFLATE (levels 1–9) remains available for archival streams.
package binlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"time"

	"jitgc/internal/telemetry"
)

// Wire constants.
const (
	fileMagic    = "JGB1" // header: format name + version in one token
	trailerMagic = "JGBX"
	tagBlock     = 0x01
	tagFooter    = 0x02

	// maxBlockRaw caps a block's declared raw payload size; anything larger
	// is corruption, not data (a default block of 4096 events is a few tens
	// of KiB).
	maxBlockRaw = 1 << 28
	// maxBlockEvents caps a block's declared event count for the same
	// reason.
	maxBlockEvents = 1 << 24
	// minEventBytes is the fewest raw payload bytes one event occupies: a
	// type index, a T delta and the four always-stored int columns, at least
	// one varint byte each. A block declaring more events than its payload
	// can hold is corrupt, and is rejected before the reader sizes its event
	// slab by the declared count.
	minEventBytes = 6
)

// Block payload codecs (the frame's codec byte).
const (
	codecStore = 0 // payload is the raw columnar bytes
	codecFlate = 1 // DEFLATE
	codecZLE   = 2 // zero-run encoding (zleCompress)
)

// alwaysFields are stored for every event regardless of type: their zero
// values are legitimate data and the JSONL encoding writes them explicitly
// (telemetry.Event tag contract), so the binary form must carry them to
// round-trip byte-faithfully.
const alwaysFields = telemetry.FDev | telemetry.FLPN | telemetry.FVictim | telemetry.FPage

// fieldsOf returns the set of fields the binary format stores for an event
// of type t.
func fieldsOf(t telemetry.EventType) telemetry.FieldSet {
	set, _ := telemetry.Fields(t)
	return set | alwaysFields
}

// zigzag folds signed into unsigned so small-magnitude negatives stay
// short under LEB128.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Column counts, fixing the sizes of the column tables and of the writer's
// per-column state.
const (
	numIntCols   = 22
	numStrCols   = 5
	numBoolCols  = 2
	numFloatCols = 2
)

// intCol describes one integer column: its presence bit, its wire name, and
// the setter the decoder fills an Event through. The encoder reads fields
// with direct accesses instead (Writer.appendFields).
type intCol struct {
	bit  telemetry.FieldSet
	name string
	set  func(*telemetry.Event, int64)
}

// intCols fixes the wire order of the integer columns. The always-present
// four lead; the rest follow in Event struct order.
var intCols = [numIntCols]intCol{
	{telemetry.FDev, "dev",
		func(e *telemetry.Event, v int64) { e.Dev = int(v) }},
	{telemetry.FLPN, "lpn",
		func(e *telemetry.Event, v int64) { e.LPN = v }},
	{telemetry.FVictim, "victim",
		func(e *telemetry.Event, v int64) { e.Victim = int(v) }},
	{telemetry.FPage, "page",
		func(e *telemetry.Event, v int64) { e.Page = int(v) }},
	{telemetry.FPages, "pages",
		func(e *telemetry.Event, v int64) { e.Pages = int(v) }},
	{telemetry.FLatency, "latency_ns",
		func(e *telemetry.Event, v int64) { e.Latency = time.Duration(v) }},
	{telemetry.FFreeBytes, "free_bytes",
		func(e *telemetry.Event, v int64) { e.FreeBytes = v }},
	{telemetry.FReclaimBytes, "reclaim_bytes",
		func(e *telemetry.Event, v int64) { e.ReclaimBytes = v }},
	{telemetry.FPredictedBytes, "predicted_bytes",
		func(e *telemetry.Event, v int64) { e.PredictedBytes = v }},
	{telemetry.FValidPages, "valid_pages",
		func(e *telemetry.Event, v int64) { e.ValidPages = int(v) }},
	{telemetry.FSIPPages, "sip_pages",
		func(e *telemetry.Event, v int64) { e.SIPPages = int(v) }},
	{telemetry.FFreedPages, "freed_pages",
		func(e *telemetry.Event, v int64) { e.FreedPages = v }},
	{telemetry.FElapsed, "elapsed_ns",
		func(e *telemetry.Event, v int64) { e.Elapsed = time.Duration(v) }},
	{telemetry.FEraseCount, "erase_count",
		func(e *telemetry.Event, v int64) { e.EraseCount = v }},
	{telemetry.FAttempts, "attempts",
		func(e *telemetry.Event, v int64) { e.Attempts = int(v) }},
	{telemetry.FTenant, "tenant",
		func(e *telemetry.Event, v int64) { e.Tenant = int(v) }},
	{telemetry.FDropped, "dropped",
		func(e *telemetry.Event, v int64) { e.Dropped = v }},
	{telemetry.FViolations, "violations",
		func(e *telemetry.Event, v int64) { e.Violations = v }},
	{telemetry.FDirtyPages, "dirty_pages",
		func(e *telemetry.Event, v int64) { e.DirtyPages = int(v) }},
	{telemetry.FFGC, "fgc",
		func(e *telemetry.Event, v int64) { e.FGCInvocations = v }},
	{telemetry.FBGC, "bgc",
		func(e *telemetry.Event, v int64) { e.BGCCollections = v }},
	{telemetry.FRequests, "requests",
		func(e *telemetry.Event, v int64) { e.Requests = v }},
}

// Int column slots, the indexes into intCols the encoder names directly.
const (
	slotDev = iota
	slotLPN
	slotVictim
	slotPage
	slotPages
	slotLatency
	slotFreeBytes
	slotReclaimBytes
	slotPredictedBytes
	slotValidPages
	slotSIPPages
	slotFreedPages
	slotElapsed
	slotEraseCount
	slotAttempts
	slotTenant
	slotDropped
	slotViolations
	slotDirtyPages
	slotFGC
	slotBGC
	slotRequests
)

// strCol describes one dictionary-encoded string column.
type strCol struct {
	bit  telemetry.FieldSet
	name string
	set  func(*telemetry.Event, string)
}

var strCols = [numStrCols]strCol{
	{telemetry.FKind, "kind",
		func(e *telemetry.Event, v string) { e.Kind = v }},
	{telemetry.FAction, "action",
		func(e *telemetry.Event, v string) { e.Action = v }},
	{telemetry.FOp, "op",
		func(e *telemetry.Event, v string) { e.Op = v }},
	{telemetry.FReason, "reason",
		func(e *telemetry.Event, v string) { e.Reason = v }},
	{telemetry.FClass, "class",
		func(e *telemetry.Event, v string) { e.Class = v }},
}

// String column slots.
const (
	slotKind = iota
	slotAction
	slotOp
	slotReason
	slotClass
)

// boolCol describes one bit-packed bool column.
type boolCol struct {
	bit  telemetry.FieldSet
	name string
	set  func(*telemetry.Event, bool)
}

var boolCols = [numBoolCols]boolCol{
	{telemetry.FForeground, "foreground",
		func(e *telemetry.Event, v bool) { e.Foreground = v }},
	{telemetry.FRecovered, "recovered",
		func(e *telemetry.Event, v bool) { e.Recovered = v }},
}

// Bool column slots.
const (
	slotForeground = iota
	slotRecovered
)

// floatCol describes one Gorilla-encoded float column.
type floatCol struct {
	bit  telemetry.FieldSet
	name string
	set  func(*telemetry.Event, float64)
}

var floatCols = [numFloatCols]floatCol{
	{telemetry.FIdleFraction, "idle_fraction",
		func(e *telemetry.Event, v float64) { e.IdleFraction = v }},
	{telemetry.FWAF, "waf",
		func(e *telemetry.Event, v float64) { e.WAF = v }},
}

// Float column slots.
const (
	slotIdleFraction = iota
	slotWAF
)

// populated returns the set of fields holding non-zero values in ev. It is
// hand-rolled with direct field accesses: it runs once per WriteEvent, and
// routing ev through dynamic funcs would both cost calls and force the event
// to escape.
func populated(ev *telemetry.Event) telemetry.FieldSet {
	var set telemetry.FieldSet
	if ev.Dev != 0 {
		set |= telemetry.FDev
	}
	if ev.Kind != "" {
		set |= telemetry.FKind
	}
	if ev.LPN != 0 {
		set |= telemetry.FLPN
	}
	if ev.Pages != 0 {
		set |= telemetry.FPages
	}
	if ev.Latency != 0 {
		set |= telemetry.FLatency
	}
	if ev.FreeBytes != 0 {
		set |= telemetry.FFreeBytes
	}
	if ev.ReclaimBytes != 0 {
		set |= telemetry.FReclaimBytes
	}
	if ev.PredictedBytes != 0 {
		set |= telemetry.FPredictedBytes
	}
	if ev.IdleFraction != 0 {
		set |= telemetry.FIdleFraction
	}
	if ev.Foreground {
		set |= telemetry.FForeground
	}
	if ev.Victim != 0 {
		set |= telemetry.FVictim
	}
	if ev.ValidPages != 0 {
		set |= telemetry.FValidPages
	}
	if ev.SIPPages != 0 {
		set |= telemetry.FSIPPages
	}
	if ev.FreedPages != 0 {
		set |= telemetry.FFreedPages
	}
	if ev.Elapsed != 0 {
		set |= telemetry.FElapsed
	}
	if ev.EraseCount != 0 {
		set |= telemetry.FEraseCount
	}
	if ev.Action != "" {
		set |= telemetry.FAction
	}
	if ev.Op != "" {
		set |= telemetry.FOp
	}
	if ev.Page != 0 {
		set |= telemetry.FPage
	}
	if ev.Attempts != 0 {
		set |= telemetry.FAttempts
	}
	if ev.Recovered {
		set |= telemetry.FRecovered
	}
	if ev.Reason != "" {
		set |= telemetry.FReason
	}
	if ev.Tenant != 0 {
		set |= telemetry.FTenant
	}
	if ev.Class != "" {
		set |= telemetry.FClass
	}
	if ev.Dropped != 0 {
		set |= telemetry.FDropped
	}
	if ev.Violations != 0 {
		set |= telemetry.FViolations
	}
	if ev.DirtyPages != 0 {
		set |= telemetry.FDirtyPages
	}
	if ev.WAF != 0 {
		set |= telemetry.FWAF
	}
	if ev.FGCInvocations != 0 {
		set |= telemetry.FFGC
	}
	if ev.BGCCollections != 0 {
		set |= telemetry.FBGC
	}
	if ev.Requests != 0 {
		set |= telemetry.FRequests
	}
	return set
}

// zleCompress appends the zero-run encoding of src to dst[:0]: alternating
// (uvarint litLen, literal bytes, uvarint zeroLen) tokens, starting with a
// literal run. Lone zeros stay literal; only runs of ≥2 are encoded, so
// every zero token advances the decoder and a malformed stream cannot spin.
// Both scans step a 64-bit word at a time: a literal run ends at the first
// pair of zero bytes, a zero run at the first non-zero byte.
func zleCompress(dst, src []byte) []byte {
	dst = dst[:0]
	n := len(src)
	for i := 0; i < n; {
		start := i
		i = zeroPairAt(src, i)
		dst = binary.AppendUvarint(dst, uint64(i-start))
		dst = append(dst, src[start:i]...)
		if i >= n {
			break
		}
		zs := i
		for i+8 <= n && binary.LittleEndian.Uint64(src[i:]) == 0 {
			i += 8
		}
		if i+8 <= n {
			i += bits.TrailingZeros64(binary.LittleEndian.Uint64(src[i:])) / 8
		} else {
			for i < n && src[i] == 0 {
				i++
			}
		}
		dst = binary.AppendUvarint(dst, uint64(i-zs))
	}
	return dst
}

// zeroPairAt returns the first index j ≥ i with src[j] = src[j+1] = 0, or
// len(src). Each word step tests the seven byte pairs that start in it, so
// consecutive words overlap by one byte and a pair straddling a word
// boundary is found by the next step.
func zeroPairAt(src []byte, i int) int {
	const lo7, hi = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	for ; i+8 <= len(src); i += 7 {
		w := binary.LittleEndian.Uint64(src[i:])
		// The high bit of each byte of z is set iff that byte of w is zero
		// (exact: the add cannot carry from one byte into the next).
		z := ^((w&lo7 + lo7) | w | lo7) & hi
		if pair := z & (z >> 8); pair != 0 {
			return i + bits.TrailingZeros64(pair)/8
		}
	}
	for ; i+1 < len(src); i++ {
		if src[i] == 0 && src[i+1] == 0 {
			return i
		}
	}
	return len(src)
}

// zleDecompress decodes a zero-run payload that must expand to exactly n
// bytes with IEEE CRC-32 crc into dst, reusing its storage when large
// enough. Length and checksum are verified on the token stream before dst
// is sized: a zero run lets a few payload bytes declare up to maxBlockRaw,
// and a corrupted block should not make the reader allocate that. CRC-32 is
// no defence against a forged block, which can still cost maxBlockRaw.
func zleDecompress(dst, src []byte, n int, crc uint32) ([]byte, error) {
	got, err := zleWalk(nil, src, n)
	if err != nil {
		return dst, err
	}
	if got != crc {
		return dst, fmt.Errorf("binlog: zle block crc mismatch (got %#x, want %#x)", got, crc)
	}
	dst = grow(dst, n)
	_, err = zleWalk(dst, src, n)
	return dst, err
}

// zeroChunk feeds zero runs to the checksum.
var zeroChunk [4096]byte

// zleWalk walks a zero-run payload expanding to exactly n bytes. With dst
// nil it returns the expansion's IEEE CRC-32 without materializing it;
// otherwise it writes the expansion into dst.
func zleWalk(dst, src []byte, n int) (uint32, error) {
	br := byteReader{b: src}
	var crc uint32
	for di := 0; di < n; {
		lit, err := br.uvarint()
		if err != nil {
			return 0, err
		}
		if lit > uint64(n-di) {
			return 0, fmt.Errorf("binlog: zle literal run of %d overflows %d remaining bytes", lit, n-di)
		}
		b, err := br.take(int(lit))
		if err != nil {
			return 0, err
		}
		if dst != nil {
			copy(dst[di:], b)
		} else {
			crc = crc32.Update(crc, crc32.IEEETable, b)
		}
		di += int(lit)
		if di >= n {
			break
		}
		z, err := br.uvarint()
		if err != nil {
			return 0, err
		}
		if z < 2 || z > uint64(n-di) {
			return 0, fmt.Errorf("binlog: zle zero run of %d with %d remaining bytes", z, n-di)
		}
		if dst != nil {
			clear(dst[di : di+int(z)])
		} else {
			for left := int(z); left > 0; left -= len(zeroChunk) {
				crc = crc32.Update(crc, crc32.IEEETable, zeroChunk[:min(left, len(zeroChunk))])
			}
		}
		di += int(z)
	}
	if br.off != len(src) {
		return 0, fmt.Errorf("binlog: %d trailing bytes in zle payload", len(src)-br.off)
	}
	return crc, nil
}

// unrepresentableError reports an event populating a field outside its
// type's field set — the only events the columnar layout cannot carry.
// Tracer-emitted events always pass the writer's check; the error exists so
// a hand-crafted event is rejected loudly instead of silently shedding a
// field.
func unrepresentableError(t telemetry.EventType, extra telemetry.FieldSet) error {
	return fmt.Errorf("binlog: event type %q populates field %q outside its field set; not representable",
		t, fieldName(extra))
}

// fieldName names the lowest set bit of set for error messages.
func fieldName(set telemetry.FieldSet) string {
	bit := telemetry.FieldSet(1) << uint(bits.TrailingZeros32(uint32(set)))
	for i := range intCols {
		if intCols[i].bit == bit {
			return intCols[i].name
		}
	}
	for i := range strCols {
		if strCols[i].bit == bit {
			return strCols[i].name
		}
	}
	for i := range boolCols {
		if boolCols[i].bit == bit {
			return boolCols[i].name
		}
	}
	for i := range floatCols {
		if floatCols[i].bit == bit {
			return floatCols[i].name
		}
	}
	return fmt.Sprintf("bit %#x", uint32(bit))
}

// bitWriter packs an MSB-first bitstream into a byte slice (the Gorilla
// float columns). The caller owns buf reuse across blocks.
type bitWriter struct {
	buf   []byte
	acc   uint64
	nbits uint
}

func (w *bitWriter) reset(buf []byte) {
	w.buf, w.acc, w.nbits = buf[:0], 0, 0
}

// writeBits appends the low n bits of v, n ≤ 32.
func (w *bitWriter) writeBits(v uint64, n uint) {
	v &= 1<<n - 1
	w.acc = w.acc<<n | v
	w.nbits += n
	for w.nbits >= 8 {
		w.nbits -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nbits))
	}
}

// write64 appends up to 64 bits in two halves.
func (w *bitWriter) write64(v uint64, n uint) {
	if n > 32 {
		w.writeBits(v>>32, n-32)
		n = 32
	}
	w.writeBits(v, n)
}

// finish pads the final partial byte with zeros and returns the stream.
func (w *bitWriter) finish() []byte {
	if w.nbits > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.nbits)))
		w.acc, w.nbits = 0, 0
	}
	return w.buf
}

// bitReader consumes an MSB-first bitstream.
type bitReader struct {
	buf   []byte
	off   int
	acc   uint64
	nbits uint
}

func (r *bitReader) reset(buf []byte) {
	r.buf, r.off, r.acc, r.nbits = buf, 0, 0, 0
}

// readBits returns the next n bits, n ≤ 32.
func (r *bitReader) readBits(n uint) (uint64, error) {
	for r.nbits < n {
		if r.off >= len(r.buf) {
			return 0, fmt.Errorf("binlog: float bitstream truncated")
		}
		r.acc = r.acc<<8 | uint64(r.buf[r.off])
		r.off++
		r.nbits += 8
	}
	r.nbits -= n
	v := r.acc >> r.nbits & (1<<n - 1)
	return v, nil
}

// read64 returns up to 64 bits in two halves.
func (r *bitReader) read64(n uint) (uint64, error) {
	if n <= 32 {
		return r.readBits(n)
	}
	hi, err := r.readBits(n - 32)
	if err != nil {
		return 0, err
	}
	lo, err := r.readBits(32)
	if err != nil {
		return 0, err
	}
	return hi<<32 | lo, nil
}
