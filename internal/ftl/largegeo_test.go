package ftl

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"jitgc/internal/nand"
)

// millionPageConfig is the 4 GiB scale preset (8,192 blocks, 1,048,576
// pages) in bare mode — the smallest geometry where the compact int32
// mapping, the 2-bit state plane, and the absent payload plane are all
// load-bearing. Fault injection and wear thresholds stay at defaults so
// the configuration is exactly what `paperbench -exp scale` runs.
func millionPageConfig(tb testing.TB) Config {
	tb.Helper()
	preset, err := nand.PresetByName("4GiB")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Geometry = preset.Geo
	cfg.DisableIntegrity = true
	return cfg
}

// TestMillionPageDifferentialSweep extends the victim-index differential
// and mapping-invariant coverage from the 256-block quick models to a
// ≥1M-page device: sequential fill, then random overwrites under GC
// pressure with the index checked against the full reference scan at
// intervals, and the complete L2P/P2L/state-plane invariant sweep at the
// end. Reduced op counts keep it under a few seconds; skipped in -short.
func TestMillionPageDifferentialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("million-page sweep; skipped in -short")
	}
	cfg := millionPageConfig(t)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.l2p.e32 == nil || f.p2l.e32 == nil {
		t.Fatal("million-page config did not select the compact int32 mapping")
	}
	user := f.UserPages()
	if total := cfg.Geometry.TotalPages(); total < 1<<20 {
		t.Fatalf("geometry has %d pages, want ≥ 1M", total)
	}
	for lpn := int64(0); lpn < user; lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			t.Fatalf("fill write(%d): %v", lpn, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	const overwrites = 50_000
	for i := 0; i < overwrites; i++ {
		if _, _, err := f.Write(rng.Int63n(user)); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
		if i%10_000 == 9_999 {
			checkIndexAgainstReference(t, f)
			if _, _, err := f.CollectBackgroundOnce(); err != nil {
				t.Fatalf("background collect: %v", err)
			}
		}
	}
	checkIndexAgainstReference(t, f)
	checkInvariants(t, f)
	st := f.Stats()
	if st.FGCInvocations+st.BGCCollections == 0 {
		t.Error("million-page sweep never triggered GC")
	}
}

// newMeasured constructs an FTL and returns the live-heap growth across the
// construction: what the device's metadata really costs, as opposed to
// what MetadataBytes adds up.
func newMeasured(tb testing.TB, cfg Config) (*FTL, int64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return f, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestMetadataBytesAccounting pins the footprint at the million-page
// geometry: bare mode costs at most 11.2 B per logical page, the
// first-principles model agrees with the measured heap growth to 2% (so
// the bound holds for real memory, not only for the sum), the FTL's own
// per-block arrays cost 17 B a block, integrity mode costs exactly the
// 8 B/page token plane more at the device level, and the budget does not
// drift as the device fills (the mapping planes are allocated up front).
func TestMetadataBytesAccounting(t *testing.T) {
	cfg := millionPageConfig(t)
	bare, heap := newMeasured(t, cfg)
	total := cfg.Geometry.TotalPages()
	perPage := float64(bare.MetadataBytes()) / float64(bare.UserPages())
	if perPage <= 0 || perPage > 11.2 {
		t.Errorf("bare metadata footprint %.2f B/lpage, want (0, 11.2]", perPage)
	}
	if rel := math.Abs(float64(heap)/float64(bare.MetadataBytes()) - 1); rel > 0.02 {
		t.Errorf("heap grew %d B across New but MetadataBytes accounts for %d B (%.1f%% apart, want ≤ 2%%)",
			heap, bare.MetadataBytes(), 100*rel)
	}
	// Beyond the mapping planes, the device, the SIP bitmap, the free pool
	// and the victim tree, the FTL keeps 17 B per block: sipPerBlock,
	// progFails and inFreePool.
	planes := bare.l2p.bytes() + bare.p2l.bytes() + bare.dev.MetadataBytes() +
		int64(len(bare.sipBits))*8 + int64(len(bare.freeBlocks))*8 + bare.idx.bytes()
	if perBlock, blocks := bare.MetadataBytes()-planes, int64(cfg.Geometry.TotalBlocks()); perBlock != 17*blocks {
		t.Errorf("per-block FTL arrays cost %d B over %d blocks, want 17 B per block", perBlock, blocks)
	}

	cfg.DisableIntegrity = false
	tracked, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := tracked.MetadataBytes() - bare.MetadataBytes(); diff != total*8 {
		t.Errorf("integrity tokens cost %d bytes, want exactly %d (8 B/page)", diff, total*8)
	}

	before := bare.MetadataBytes()
	for lpn := int64(0); lpn < 10_000; lpn++ {
		if _, _, err := bare.Write(lpn); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	after := bare.MetadataBytes()
	// The victim index and free pool are pre-sized; writing may only move
	// the accounting by the free-pool slice shrinking, never grow it.
	if after > before {
		t.Errorf("metadata grew under writes: %d → %d bytes", before, after)
	}
}

// TestMillionPageWritePathZeroAlloc pins the zero-allocation write path at
// the million-page scale: the compact mapping and bit-packed state plane
// must not introduce per-op allocations that the 256-page quick geometry
// would hide. Skipped in -short (steady state needs a full device fill).
func TestMillionPageWritePathZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("million-page steady-state fill; skipped in -short")
	}
	f := steadyFTL(t, millionPageConfig(t))
	lpn := int64(0)
	if avg := testing.AllocsPerRun(400, func() {
		if _, _, err := f.Write(lpn); err != nil {
			t.Fatalf("Write(%d): %v", lpn, err)
		}
		lpn = (lpn + 7) % f.UserPages()
	}); avg != 0 {
		t.Errorf("million-page steady-state Write allocates %.2f times per op, want 0", avg)
	}
}

// BenchmarkFTLMemoryFootprint prints the two per-logical-page figures
// TestMetadataBytesAccounting compares: measured heap and accounted bytes.
// Run with -benchtime=1x: the measurement is a heap delta around New, not a
// timing, so one iteration is the benchmark.
func BenchmarkFTLMemoryFootprint(b *testing.B) {
	cfg := millionPageConfig(b)
	for i := 0; i < b.N; i++ {
		f, heap := newMeasured(b, cfg)
		b.ReportMetric(float64(heap)/float64(f.UserPages()), "bytes/lpage")
		b.ReportMetric(float64(f.MetadataBytes())/float64(f.UserPages()), "accounted-bytes/lpage")
		runtime.KeepAlive(f)
	}
}
