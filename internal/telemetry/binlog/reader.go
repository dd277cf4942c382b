package binlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"jitgc/internal/telemetry"
)

// byteReader walks a decoded block payload with explicit bounds checks, so
// a corrupt length can never index past the buffer.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("binlog: truncated varint at payload offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || n > len(r.b)-r.off {
		return nil, fmt.Errorf("binlog: %d bytes wanted at payload offset %d, %d available", n, r.off, len(r.b)-r.off)
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *byteReader) readDict() ([]string, error) {
	count, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if count > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("binlog: dictionary of %d entries in %d remaining bytes", count, len(r.b)-r.off)
	}
	dict := make([]string, count)
	for i := range dict {
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.take(int(n))
		if err != nil {
			return nil, err
		}
		dict[i] = string(b)
	}
	return dict, nil
}

// Reader streams events back out of a binlog stream, block by block. A
// truncated or corrupted stream surfaces as an error from Next — never as
// silently partial data: a missing footer, a CRC mismatch, or trailing
// bytes all fail loudly, and no event from a damaged block is returned.
type Reader struct {
	br *bufio.Reader

	evs []telemetry.Event
	pos int

	comp  []byte
	raw   []byte
	fsets []telemetry.FieldSet

	nblocks int64
	done    bool
	err     error
}

// NewReader opens a binlog stream, validating the header magic.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("binlog: read header: %w", err)
	}
	if string(magic[:]) != fileMagic {
		return nil, fmt.Errorf("binlog: bad magic %q (not a binlog stream, or an unsupported version)", magic)
	}
	return &Reader{br: br}, nil
}

// Next returns the next event, or io.EOF after the footer of a complete
// stream. Any other error means the stream is damaged; the first error is
// sticky.
func (r *Reader) Next() (telemetry.Event, error) {
	if r.err != nil {
		return telemetry.Event{}, r.err
	}
	for r.pos >= len(r.evs) {
		if r.done {
			return telemetry.Event{}, io.EOF
		}
		if err := r.readRecord(); err != nil {
			r.err = err
			return telemetry.Event{}, err
		}
	}
	ev := r.evs[r.pos]
	r.pos++
	return ev, nil
}

// readRecord consumes one framed record: a block (refilling r.evs) or the
// footer (marking the stream complete).
func (r *Reader) readRecord() error {
	tag, err := r.br.ReadByte()
	if err == io.EOF {
		return fmt.Errorf("binlog: truncated stream: missing footer: %w", io.ErrUnexpectedEOF)
	}
	if err != nil {
		return fmt.Errorf("binlog: read record tag: %w", err)
	}
	switch tag {
	case tagBlock:
		return r.readBlock()
	case tagFooter:
		return r.readFooter()
	default:
		return fmt.Errorf("binlog: unknown record tag %#x", tag)
	}
}

func (r *Reader) readBlock() error {
	rawLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("binlog: block header: %w", noEOF(err))
	}
	codec, err := r.br.ReadByte()
	if err != nil {
		return fmt.Errorf("binlog: block header: %w", noEOF(err))
	}
	payloadLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("binlog: block header: %w", noEOF(err))
	}
	if rawLen == 0 || rawLen > maxBlockRaw || payloadLen > maxBlockRaw {
		return fmt.Errorf("binlog: implausible block sizes raw=%d payload=%d", rawLen, payloadLen)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.br, crcBuf[:]); err != nil {
		return fmt.Errorf("binlog: block header: %w", noEOF(err))
	}
	wantCRC := binary.LittleEndian.Uint32(crcBuf[:])

	// No buffer is sized by a declared length alone: payloads grow with the
	// bytes that arrive, and raw with what the payload really expands to (a
	// zero-run payload's expansion once its checksum holds).
	switch codec {
	case codecStore:
		if payloadLen != rawLen {
			return fmt.Errorf("binlog: stored block declares payload %d ≠ raw %d", payloadLen, rawLen)
		}
		if r.raw, err = readExact(r.br, r.raw, int(rawLen)); err != nil {
			return fmt.Errorf("binlog: block payload: %w", noEOF(err))
		}
		if got := crc32.ChecksumIEEE(r.raw); got != wantCRC {
			return fmt.Errorf("binlog: block %d crc mismatch (got %#x, want %#x)", r.nblocks, got, wantCRC)
		}
	case codecZLE: // zleDecompress checks the expansion's CRC
		if r.comp, err = readExact(r.br, r.comp, int(payloadLen)); err != nil {
			return fmt.Errorf("binlog: block payload: %w", noEOF(err))
		}
		if r.raw, err = zleDecompress(r.raw, r.comp, int(rawLen), wantCRC); err != nil {
			return err
		}
	default:
		return fmt.Errorf("binlog: unknown block codec %d", codec)
	}
	if err := r.decodeBlock(r.raw); err != nil {
		return err
	}
	r.nblocks++
	return nil
}

// decodeBlock reconstructs events from one raw columnar payload.
func (r *Reader) decodeBlock(raw []byte) error {
	br := byteReader{b: raw}
	nU, err := br.uvarint()
	if err != nil {
		return err
	}
	if nU == 0 || nU > maxBlockEvents || nU > uint64(len(raw)/minEventBytes) {
		return fmt.Errorf("binlog: implausible block event count %d in %d payload bytes", nU, len(raw))
	}
	n := int(nU)

	if cap(r.evs) < n {
		r.evs = make([]telemetry.Event, n)
		r.fsets = make([]telemetry.FieldSet, n)
	} else {
		r.evs = r.evs[:n]
		r.fsets = r.fsets[:n]
		clear(r.evs) // columns only touch present fields
	}
	evs := r.evs

	// Type column.
	typeDict, err := br.readDict()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		id, err := br.uvarint()
		if err != nil {
			return err
		}
		if id >= uint64(len(typeDict)) {
			return fmt.Errorf("binlog: type index %d outside dictionary of %d", id, len(typeDict))
		}
		evs[i].Type = telemetry.EventType(typeDict[id])
		r.fsets[i] = fieldsOf(evs[i].Type)
	}

	// T column.
	prevT, prevDelta := int64(0), int64(0)
	for i := 0; i < n; i++ {
		u, err := br.uvarint()
		if err != nil {
			return err
		}
		if i == 0 {
			prevT = unzigzag(u)
		} else {
			prevDelta += unzigzag(u)
			prevT += prevDelta
		}
		evs[i].T = time.Duration(prevT)
	}

	// Int columns.
	for c := range intCols {
		col := &intCols[c]
		prev := int64(0)
		for i := 0; i < n; i++ {
			if r.fsets[i]&col.bit == 0 {
				continue
			}
			u, err := br.uvarint()
			if err != nil {
				return fmt.Errorf("binlog: column %q: %w", col.name, err)
			}
			prev += unzigzag(u)
			col.set(&evs[i], prev)
		}
	}

	// String columns.
	for c := range strCols {
		col := &strCols[c]
		dict, err := br.readDict()
		if err != nil {
			return fmt.Errorf("binlog: column %q: %w", col.name, err)
		}
		for i := 0; i < n; i++ {
			if r.fsets[i]&col.bit == 0 {
				continue
			}
			id, err := br.uvarint()
			if err != nil {
				return fmt.Errorf("binlog: column %q: %w", col.name, err)
			}
			if id >= uint64(len(dict)) {
				return fmt.Errorf("binlog: column %q index %d outside dictionary of %d", col.name, id, len(dict))
			}
			col.set(&evs[i], dict[id])
		}
	}

	if br.off != len(raw) {
		return fmt.Errorf("binlog: %d trailing bytes after block payload", len(raw)-br.off)
	}
	r.pos = 0
	return nil
}

// readFooter validates the index record and the fixed trailer, then
// requires EOF.
func (r *Reader) readFooter() error {
	idxLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("binlog: footer: %w", noEOF(err))
	}
	if idxLen > maxBlockRaw {
		return fmt.Errorf("binlog: implausible footer index size %d", idxLen)
	}
	if r.raw, err = readExact(r.br, r.raw, int(idxLen)); err != nil {
		return fmt.Errorf("binlog: footer index: %w", noEOF(err))
	}
	var tail [12]byte
	if _, err := io.ReadFull(r.br, tail[:]); err != nil {
		return fmt.Errorf("binlog: footer trailer: %w", noEOF(err))
	}
	if got, want := crc32.ChecksumIEEE(r.raw), binary.LittleEndian.Uint32(tail[:4]); got != want {
		return fmt.Errorf("binlog: footer index crc mismatch (got %#x, want %#x)", got, want)
	}
	if string(tail[8:]) != trailerMagic {
		return fmt.Errorf("binlog: bad trailer magic %q", tail[8:])
	}
	br := byteReader{b: r.raw}
	blocks, err := br.uvarint()
	if err != nil {
		return fmt.Errorf("binlog: footer index: %w", err)
	}
	if blocks != uint64(r.nblocks) {
		return fmt.Errorf("binlog: footer indexes %d blocks, stream carried %d", blocks, r.nblocks)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("binlog: data after footer")
	}
	r.done = true
	return nil
}

// Decode reads a whole binlog stream into memory (tests, converters). Like
// DecodeJSONL it returns the events decoded before any error.
func Decode(r io.Reader) ([]telemetry.Event, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var evs []telemetry.Event
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}

// IndexEntry describes one block as the footer index records it: its
// absolute file offset, event count, and timestamp range.
type IndexEntry struct {
	Offset int64
	Events int64
	FirstT time.Duration
	LastT  time.Duration
}

// ReadIndex loads the footer index from the end of a seekable stream
// without scanning the blocks. rs is left positioned at an unspecified
// offset.
func ReadIndex(rs io.ReadSeeker) ([]IndexEntry, error) {
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("binlog: seek footer: %w", err)
	}
	if end < int64(len(fileMagic))+8 {
		return nil, fmt.Errorf("binlog: %d-byte stream too short for a footer", end)
	}
	var tail [8]byte
	if _, err := rs.Seek(end-8, io.SeekStart); err != nil {
		return nil, fmt.Errorf("binlog: seek footer: %w", err)
	}
	if _, err := io.ReadFull(rs, tail[:]); err != nil {
		return nil, fmt.Errorf("binlog: read trailer: %w", noEOF(err))
	}
	if string(tail[4:]) != trailerMagic {
		return nil, fmt.Errorf("binlog: bad trailer magic %q (truncated stream?)", tail[4:])
	}
	footerLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	start := end - 8 - footerLen
	if footerLen < 6 || start < int64(len(fileMagic)) {
		return nil, fmt.Errorf("binlog: implausible footer length %d", footerLen)
	}
	if _, err := rs.Seek(start, io.SeekStart); err != nil {
		return nil, fmt.Errorf("binlog: seek footer: %w", err)
	}
	footer := make([]byte, footerLen)
	if _, err := io.ReadFull(rs, footer); err != nil {
		return nil, fmt.Errorf("binlog: read footer: %w", noEOF(err))
	}
	if footer[0] != tagFooter {
		return nil, fmt.Errorf("binlog: footer tag %#x, want %#x", footer[0], tagFooter)
	}
	br := byteReader{b: footer[1:]}
	idxLen, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	idx, err := br.take(int(idxLen))
	if err != nil {
		return nil, err
	}
	crcBytes, err := br.take(4)
	if err != nil {
		return nil, err
	}
	if got, want := crc32.ChecksumIEEE(idx), binary.LittleEndian.Uint32(crcBytes); got != want {
		return nil, fmt.Errorf("binlog: footer index crc mismatch (got %#x, want %#x)", got, want)
	}

	ibr := byteReader{b: idx}
	count, err := ibr.uvarint()
	if err != nil {
		return nil, err
	}
	if count > uint64(len(idx)) { // ≥4 varint bytes per entry
		return nil, fmt.Errorf("binlog: index of %d entries in %d bytes", count, len(idx))
	}
	entries := make([]IndexEntry, 0, count)
	off := int64(0)
	firstT := time.Duration(0)
	for i := uint64(0); i < count; i++ {
		offD, err := ibr.uvarint()
		if err != nil {
			return nil, err
		}
		events, err := ibr.uvarint()
		if err != nil {
			return nil, err
		}
		firstD, err := ibr.uvarint()
		if err != nil {
			return nil, err
		}
		lastD, err := ibr.uvarint()
		if err != nil {
			return nil, err
		}
		off += int64(offD)
		firstT += time.Duration(unzigzag(firstD))
		entries = append(entries, IndexEntry{
			Offset: off,
			Events: int64(events),
			FirstT: firstT,
			LastT:  firstT + time.Duration(unzigzag(lastD)),
		})
	}
	return entries, nil
}

// grow returns buf resized to n, reallocating only when capacity is short.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// readExact reads exactly n bytes from r into buf, reusing its storage when
// large enough. Otherwise the buffer grows, doubling from 64 KiB, only as
// bytes arrive: a corrupt length in a short stream costs about what the
// stream holds, not what the length declares.
func readExact(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 64<<10)))
		}
		end := min(n, cap(buf))
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			return buf, err
		}
		buf = buf[:end]
	}
	return buf, nil
}

// noEOF maps io.EOF to io.ErrUnexpectedEOF: inside a record, running out
// of bytes is truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
