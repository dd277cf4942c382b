package ftl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// dirtyFTL builds an FTL with realistic mixed state: fill, overwrite, GC.
func dirtyFTL(t *testing.T) *FTL {
	t.Helper()
	f := newSmall(t)
	fillUser(t, f)
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.ReclaimBackground(32, 0); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	f := dirtyFTL(t)
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// Simulate a power cycle: wipe the logical state, keep the NAND image.
	for i := int64(0); i < f.l2p.len(); i++ {
		f.l2p.set(i, unmapped)
	}
	for i := int64(0); i < f.p2l.len(); i++ {
		f.p2l.set(i, unmapped)
	}
	f.freeBlocks = nil

	if err := f.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	checkInvariants(t, f)

	// The restored FTL keeps serving reads and writes correctly.
	for lpn := int64(0); lpn < f.UserPages(); lpn += 17 {
		if f.MappedPPN(lpn) == -1 {
			continue
		}
		if _, err := f.Read(lpn); err != nil {
			t.Fatalf("read lpn %d after restore: %v", lpn, err)
		}
	}
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatalf("write after restore: %v", err)
		}
	}
	checkInvariants(t, f)
}

func TestRestoreRejectsGarbage(t *testing.T) {
	f := newSmall(t)
	if err := f.Restore(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	if err := f.Restore(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestRestoreRejectsMismatchedDevice(t *testing.T) {
	f := dirtyFTL(t)
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh FTL has an erased array: the snapshot's mapped pages are not
	// valid there, so the cross-check must fail.
	fresh := newSmall(t)
	if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("snapshot restored onto a device with different contents")
	}
}

func TestRestoreRejectsDuplicateMappings(t *testing.T) {
	f := dirtyFTL(t)
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the snapshot: duplicate the first mapped entry's PPN into
	// another slot. Mapping data starts after header+fields+freelist.
	raw := buf.Bytes()
	prefix := 8 + 7*8 + len(f.freeBlocks)*8
	// Find two mapped entries and alias them.
	var firstOff = -1
	for i := prefix; i+8 <= len(raw); i += 8 {
		neg := true
		for b := 0; b < 8; b++ {
			if raw[i+b] != 0xFF {
				neg = false
				break
			}
		}
		if neg {
			continue // unmapped (-1)
		}
		if firstOff < 0 {
			firstOff = i
			continue
		}
		copy(raw[i:i+8], raw[firstOff:firstOff+8])
		break
	}
	fresh := dirtyFTL(t)
	_ = fresh
	if err := f.Restore(bytes.NewReader(raw)); err == nil {
		t.Error("aliased snapshot accepted")
	}
}

// failAfterWriter errors once n bytes have been written, exercising every
// error return on the snapshot encoding path (header, scalar fields, free
// pool, mapping chunks).
type failAfterWriter struct {
	n   int
	err error
}

var errBoom = errors.New("boom")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	if w.n == 0 {
		return len(p), w.err
	}
	return len(p), nil
}

func TestSnapshotPropagatesWriteErrors(t *testing.T) {
	f := dirtyFTL(t)
	var full bytes.Buffer
	if err := f.Snapshot(&full); err != nil {
		t.Fatal(err)
	}
	// Fail at every section boundary: magic, version, a scalar field, the
	// free pool, the first mapping chunk, and one byte short of the end.
	// bufio only surfaces the error at a flush boundary, so the snapshot
	// must fail for every cutoff — no cutoff may silently truncate.
	for _, cut := range []int{0, 4, 8, 8 + 7*8, full.Len() / 2, full.Len() - 1} {
		w := &failAfterWriter{n: cut, err: errBoom}
		if err := f.Snapshot(w); err == nil {
			t.Errorf("Snapshot with writer failing after %d bytes returned nil error", cut)
		}
	}
}

// preconditionedFTL is the small device filled to 90% of its user capacity,
// the state a simulator starts from.
func preconditionedFTL(tb testing.TB) *FTL {
	tb.Helper()
	f, err := New(smallConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.Fill(f.UserPages() * 9 / 10); err != nil {
		tb.Fatal(err)
	}
	return f
}

// Offsets into a snapshot: the 8-byte header, seven int64 fields, the free
// pool, then one int64 per logical page.
const (
	snapHostActive = 8 + 3*8
	snapGCActive   = 8 + 4*8
	snapPool       = 8 + 7*8
)

func snapshotBytes(t *testing.T, f *FTL) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreRejectsBrokenSnapshots feeds Restore snapshots that decode
// but describe an FTL that cannot exist on the device: each must fail, and
// leave the FTL it was loaded onto as it was.
func TestRestoreRejectsBrokenSnapshots(t *testing.T) {
	f := preconditionedFTL(t)
	valid := snapshotBytes(t, f)
	le := binary.LittleEndian
	mapAt := func(lpn int) int { return snapPool + 8*len(f.freeBlocks) + 8*lpn }
	put := func(off int, v int64) func([]byte) {
		return func(b []byte) { le.PutUint64(b[off:], uint64(v)) }
	}
	cases := map[string]func([]byte){
		"host active block 2^40":       put(snapHostActive, 1<<40),
		"GC active block -2":           put(snapGCActive, -2),
		"one block active twice":       put(snapGCActive, int64(f.hostActive)),
		"free pool entry duplicated":   put(snapPool+8, int64(f.freeBlocks[0])),
		"free pool holds the active":   put(snapPool, int64(f.hostActive)),
		"free pool holds a full block": put(snapPool, 0), // the fill's first block
		"two lpns swap pages": func(b []byte) {
			var x [8]byte
			copy(x[:], b[mapAt(0):])
			copy(b[mapAt(0):mapAt(1)], b[mapAt(1):mapAt(2)])
			copy(b[mapAt(1):], x[:])
		},
		"a valid page left unmapped": put(mapAt(0), unmapped),
	}
	for name, corrupt := range cases {
		raw := append([]byte(nil), valid...)
		corrupt(raw)
		if err := f.Restore(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: restored", name)
		}
		if got := snapshotBytes(t, f); !bytes.Equal(got, valid) {
			t.Errorf("%s: a failed restore changed the FTL", name)
		}
	}
	if err := f.Restore(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the uncorrupted snapshot: %v", err)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// FuzzRestore: Restore of arbitrary bytes onto a preconditioned device never
// panics, and a restore that succeeds leaves an FTL that passes
// CheckConsistency and keeps serving writes and collections without
// panicking.
func FuzzRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := preconditionedFTL(t)
		if err := d.Restore(bytes.NewReader(data)); err != nil {
			return
		}
		if err := d.CheckConsistency(); err != nil {
			t.Fatalf("restored FTL inconsistent: %v", err)
		}
		_ = d.FreePages()
		for lpn := int64(0); lpn < d.UserPages(); lpn += 7 {
			if _, _, err := d.Write(lpn); err != nil {
				break
			}
		}
		_, _ = d.ReclaimBackground(int64(d.cfg.Geometry.PagesPerBlock), 0)
		if err := d.CheckConsistency(); err != nil {
			t.Fatalf("FTL inconsistent after serving a restored snapshot: %v", err)
		}
	})
}
