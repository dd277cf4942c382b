package ftl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"jitgc/internal/nand"
)

// Mapping-table persistence. Real FTLs periodically checkpoint their
// logical-to-physical mapping to survive power cycles; this file implements
// the equivalent for the simulated FTL: Snapshot serializes the mapping and
// enough block state to rebuild an identical FTL over an identical NAND
// image, and Restore verifies the snapshot against the device it is loaded
// onto. The format is a little-endian binary stream with a magic header.

const (
	snapshotMagic   = uint32(0x4A49_5447) // "JITG"
	snapshotVersion = uint32(2)
)

// Snapshot writes the FTL's logical state (mapping, active blocks, free
// pool, write sequence) to w. The NAND array contents are not included:
// a snapshot is only meaningful together with the array it describes, the
// way an FTL checkpoint is only meaningful on its own flash.
func (f *FTL) Snapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian

	writeU32 := func(v uint32) error { return binary.Write(bw, le, v) }
	writeI64 := func(v int64) error { return binary.Write(bw, le, v) }

	if err := writeU32(snapshotMagic); err != nil {
		return err
	}
	if err := writeU32(snapshotVersion); err != nil {
		return err
	}
	geo := f.cfg.Geometry
	for _, v := range []int64{
		int64(geo.TotalBlocks()), int64(geo.PagesPerBlock), f.userPages,
		int64(f.hostActive), int64(f.gcActive), int64(f.writeSeq),
		int64(len(f.freeBlocks)),
	} {
		if err := writeI64(v); err != nil {
			return err
		}
	}
	for _, b := range f.freeBlocks {
		if err := writeI64(int64(b)); err != nil {
			return err
		}
	}
	// The mapping is streamed as int64 entries in fixed-size chunks
	// regardless of the in-memory entry width, so compact (int32) and wide
	// FTLs produce byte-identical snapshots and can restore each other's.
	buf := make([]int64, 0, snapshotChunk)
	for i := int64(0); i < f.l2p.len(); i++ {
		buf = append(buf, f.l2p.at(i))
		if len(buf) == snapshotChunk {
			if err := binary.Write(bw, le, buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if err := binary.Write(bw, le, buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// snapshotChunk is the mapping-stream buffer size in entries (32 KiB of
// bytes): large enough to amortize binary.Write's reflection, small enough
// that snapshotting a 64 GiB device does not double its mapping footprint.
const snapshotChunk = 4096

// Restore loads a snapshot written by Snapshot into f, which must be an FTL
// over a NAND array with the same geometry and page states (typically the
// very array the snapshot was taken from, after a simulated power cycle).
// The rebuilt reverse mapping is cross-checked against the device's
// valid-page states; any inconsistency fails the restore.
func (f *FTL) Restore(r io.Reader) error {
	br := bufio.NewReader(r)
	le := binary.LittleEndian

	var magic, version uint32
	if err := binary.Read(br, le, &magic); err != nil {
		return fmt.Errorf("ftl: snapshot header: %w", err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("ftl: bad snapshot magic %#x", magic)
	}
	if err := binary.Read(br, le, &version); err != nil {
		return err
	}
	if version != snapshotVersion {
		return fmt.Errorf("ftl: unsupported snapshot version %d", version)
	}

	readI64 := func() (int64, error) {
		var v int64
		err := binary.Read(br, le, &v)
		return v, err
	}
	vals := make([]int64, 7)
	for i := range vals {
		v, err := readI64()
		if err != nil {
			return fmt.Errorf("ftl: snapshot field %d: %w", i, err)
		}
		vals[i] = v
	}
	geo := f.cfg.Geometry
	if vals[0] != int64(geo.TotalBlocks()) || vals[1] != int64(geo.PagesPerBlock) || vals[2] != f.userPages {
		return fmt.Errorf("ftl: snapshot geometry %d/%d/%d does not match device %d/%d/%d",
			vals[0], vals[1], vals[2], geo.TotalBlocks(), geo.PagesPerBlock, f.userPages)
	}
	hostActive, gcActive := int(vals[3]), int(vals[4])
	writeSeq := uint64(vals[5])
	nFree := vals[6]
	if nFree < 0 || nFree > int64(geo.TotalBlocks()) {
		return fmt.Errorf("ftl: snapshot free pool size %d", nFree)
	}
	// Full capacity is reserved up front so steady-state erase/takeFreeBlock
	// cycles after the restore append in place instead of growing the slice.
	freeBlocks := make([]int, nFree, geo.TotalBlocks())
	for i := range freeBlocks {
		v, err := readI64()
		if err != nil {
			return err
		}
		if v < 0 || v >= int64(geo.TotalBlocks()) {
			return fmt.Errorf("ftl: snapshot free block %d out of range", v)
		}
		freeBlocks[i] = int(v)
	}
	// Read the mapping stream (int64 entries, see Snapshot) into a fresh
	// pageMap, rebuilding the reverse mapping and cross-checking against
	// device state as entries arrive.
	total := geo.TotalPages()
	l2p := newPageMap(f.userPages, total)
	p2l := newPageMap(total, total)
	mapped := int64(0)
	ppb := geo.PagesPerBlock
	buf := make([]int64, snapshotChunk)
	for lpn := int64(0); lpn < f.userPages; {
		n := int64(len(buf))
		if rest := f.userPages - lpn; rest < n {
			n = rest
		}
		chunk := buf[:n]
		if err := binary.Read(br, le, chunk); err != nil {
			return fmt.Errorf("ftl: snapshot mapping: %w", err)
		}
		for _, ppn := range chunk {
			if ppn == unmapped {
				lpn++
				continue
			}
			if ppn < 0 || ppn >= total {
				return fmt.Errorf("ftl: snapshot maps lpn %d to bad ppn %d", lpn, ppn)
			}
			if prev := p2l.at(ppn); prev != unmapped {
				return fmt.Errorf("ftl: snapshot maps lpns %d and %d to ppn %d", prev, lpn, ppn)
			}
			st, err := f.dev.PageStateAt(nand.AddrOfPPN(ppn, ppb))
			if err != nil {
				return err
			}
			if st != nand.PageValid {
				return fmt.Errorf("ftl: snapshot maps lpn %d to non-valid page %d (%v)", lpn, ppn, st)
			}
			l2p.set(lpn, ppn)
			p2l.set(ppn, lpn)
			mapped++
			lpn++
		}
	}

	f.l2p = l2p
	f.p2l = p2l
	f.mappedPages = mapped
	f.freeBlocks = freeBlocks
	f.hostActive = hostActive
	f.gcActive = gcActive
	f.writeSeq = writeSeq
	// Host-side hint state does not survive a power cycle: the set starts
	// empty, and a host that sends changes has to start over with a reset.
	f.UpdateSIP(true, nil, nil)
	// The free-pool bitmap and victim index are derived state, rebuilt from
	// the restored pool and the device image.
	for i := range f.inFreePool {
		f.inFreePool[i] = false
	}
	for _, b := range freeBlocks {
		f.inFreePool[b] = true
	}
	f.poolFloor = 0 // a valid bound for any pool; the next take tightens it
	f.rebuildVictimIndex()
	return nil
}
