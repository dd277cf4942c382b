// Package binlog is the compact, block-coded columnar encoding for
// telemetry.Event streams (DESIGN.md §10). JSONL traces parse slower than
// the simulator produces them once runs reach 10⁸ events; this format
// borrows the Gorilla/mebo column techniques — delta-of-delta timestamps,
// zigzag-delta integer columns, per-block string dictionaries — so a trace
// costs a few bytes per event instead of a hundred, and encodes in a
// fraction of the JSONL marshal time.
//
// Layout (all multi-byte scalars little-endian, varints are unsigned
// LEB128, signed values zigzag-folded first):
//
//	"JGB2"                        file magic + version
//	repeated block records:
//	  0x01 tag
//	  uvarint rawLen              payload size before compression
//	  byte    codec               0 stored, 2 zero-run (1 is unknown)
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
// The trailing (footerLen, magic) pair lets ReadIndex load the index from
// the end of a file without scanning its blocks (jitgctrace info).
//
// A block's raw payload is columnar:
//
//	uvarint n                     event count
//	type column                   per-block dictionary + n indices
//	T column                      zigzag(T₀), then zigzag delta-of-delta
//	int columns                   zigzag delta vs previous value in column
//	string columns                per-block dictionary + indices
//
// The columns are the rows of telemetry.Columns, the schema the telemetry
// package declares beside Event: every non-string column in table order,
// then every string column in table order. This package walks that table;
// only the request fast path, Writer.WriteRequest, names columns itself.
// Bools ride the int columns as 0 and 1 (any non-zero value reads as true),
// and floats as their IEEE-754 bits, so NaN, ±Inf and −0 round-trip
// exactly. A stream of the previous layout, JGB1, fails at the header as an
// unsupported version.
//
// A column stores one value per event whose type's field set
// (telemetry.Fields) contains the column's field; the always-stored
// columns (Dev, LPN, Victim and Page) hold one for every event because
// their zeros are explicit in the JSONL encoding too. Presence is therefore
// a pure function of the type column, which is what makes ToJSONL's view of
// a stream byte-identical to what telemetry.JSONLSink writes for the same
// events.
//
// Blocks are zero-run coded: columnar deltas leave long runs of zero bytes
// (idle columns, repeated values), and squeezing just those runs is nearly
// free. A block the zero-run codec does not shrink is stored. Codec 1
// reads as an unknown codec.
package binlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"

	"jitgc/internal/telemetry"
)

// Wire constants.
const (
	fileMagic    = "JGB2" // header: format name + version in one token
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

// Block payload codecs (the frame's codec byte; 1, once DEFLATE, is
// rejected as unknown).
const (
	codecStore = 0 // payload is the raw columnar bytes
	codecZLE   = 2 // zero-run encoding (zleCompress)
)

// alwaysStored is the set of the columns stored for every event whatever
// its type: their zero values are legitimate data, which the JSONL encoding
// writes explicitly, so the binary form carries them to round-trip
// byte-faithfully.
var alwaysStored = func() (set telemetry.FieldSet) {
	for i := range telemetry.Columns {
		if telemetry.Columns[i].Always {
			set |= telemetry.Columns[i].Bit
		}
	}
	return set
}()

// storedFields returns the set of columns the binary format stores for an
// event of type t.
func storedFields(t telemetry.EventType) telemetry.FieldSet {
	set, _ := telemetry.Fields(t)
	return set | alwaysStored
}

// zigzag folds signed into unsigned so small-magnitude negatives stay
// short under LEB128.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// wireOrder lists the indexes of telemetry.Columns in the order a block
// carries the columns: every non-string column, then every string column,
// each group in table order.
var wireOrder = func() (order []int) {
	for _, str := range []bool{false, true} {
		for c := range telemetry.Columns {
			if (telemetry.Columns[c].Kind == telemetry.StringColumn) == str {
				order = append(order, c)
			}
		}
	}
	return order
}()

// columnOf maps a field bit's position to its row in telemetry.Columns.
var columnOf = func() (rows [32]int) {
	for c := range telemetry.Columns {
		rows[bits.TrailingZeros32(uint32(telemetry.Columns[c].Bit))] = c
	}
	return rows
}()

// column returns the row in telemetry.Columns of the single field bit.
func column(bit telemetry.FieldSet) int { return columnOf[bits.TrailingZeros32(uint32(bit))] }

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

// unrepresentableError reports an event populating field outside its
// type's field set — the only events the columnar layout cannot carry.
// Tracer-emitted events always pass the writer's check; the error exists so
// a hand-crafted event is rejected loudly instead of silently shedding a
// field.
func unrepresentableError(t telemetry.EventType, field string) error {
	return fmt.Errorf("binlog: event type %q populates field %q outside its field set; not representable",
		t, field)
}
