package ftl

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"jitgc/internal/nand"
)

// smallConfig returns an FTL over 16 blocks × 16 pages = 256 physical
// pages with a third of user capacity as OP — generous, so a tiny device
// still leaves the GC reserve plus slack (191 user pages, 65 OP pages).
func smallConfig() Config {
	return Config{
		Geometry: nand.Geometry{
			Channels: 2, ChipsPerChannel: 1, BlocksPerChip: 8,
			PagesPerBlock: 16, PageSize: 4096,
		},
		OPRatio: 0.34,
	}
}

func newSmall(t *testing.T) *FTL {
	t.Helper()
	f, err := New(smallConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.OPRatio = 0 },
		func(c *Config) { c.OPRatio = 1 },
		func(c *Config) { c.WearThreshold = -1 },
		func(c *Config) { c.Geometry.Channels = 0 },
	}
	for i, m := range cases {
		cfg := smallConfig()
		m(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// OP too small to hold the reserve must be rejected.
	cfg := smallConfig()
	cfg.OPRatio = 0.01
	if _, err := New(cfg); err == nil {
		t.Error("accepted OP ratio that cannot hold the GC reserve")
	}
}

func TestCapacitySplit(t *testing.T) {
	f := newSmall(t)
	total := int64(smallConfig().Geometry.TotalPages())
	if f.UserPages()+f.OPPages() != total {
		t.Errorf("user %d + OP %d != total %d", f.UserPages(), f.OPPages(), total)
	}
	if f.OPBytes() != f.OPPages()*4096 {
		t.Errorf("OPBytes inconsistent")
	}
	if f.FreePages() != total {
		t.Errorf("fresh FTL free pages = %d, want %d", f.FreePages(), total)
	}
	wantWritable := total - int64(2*16)
	if f.WritablePages() != wantWritable {
		t.Errorf("writable = %d, want %d", f.WritablePages(), wantWritable)
	}
}

func TestWriteReadMapping(t *testing.T) {
	f := newSmall(t)
	if _, _, err := f.Write(-1); !errors.Is(err, ErrBadLPN) {
		t.Errorf("write lpn -1: %v", err)
	}
	if _, _, err := f.Write(f.UserPages()); !errors.Is(err, ErrBadLPN) {
		t.Errorf("write beyond capacity: %v", err)
	}
	if _, err := f.Read(f.UserPages()); !errors.Is(err, ErrBadLPN) {
		t.Errorf("read beyond capacity: %v", err)
	}

	service, fgc, err := f.Write(42)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if fgc != 0 {
		t.Errorf("fresh write triggered FGC time %v", fgc)
	}
	if service != f.dev.Timing().ProgramCost() {
		t.Errorf("service = %v, want %v", service, f.dev.Timing().ProgramCost())
	}
	if f.MappedPPN(42) < 0 {
		t.Error("lpn 42 unmapped after write")
	}
	d, err := f.Read(42)
	if err != nil || d != f.dev.Timing().ReadCost() {
		t.Errorf("read = %v, %v", d, err)
	}
	// Unmapped read costs only transfer time.
	d, err = f.Read(43)
	if err != nil || d != f.dev.Timing().Transfer {
		t.Errorf("unmapped read = %v, %v", d, err)
	}
	if f.MappedPPN(-1) != -1 || f.MappedPPN(f.UserPages()) != -1 {
		t.Error("MappedPPN out of range should be -1")
	}
}

func TestOverwriteInvalidatesOldPage(t *testing.T) {
	f := newSmall(t)
	if _, _, err := f.Write(7); err != nil {
		t.Fatal(err)
	}
	old := f.MappedPPN(7)
	if _, _, err := f.Write(7); err != nil {
		t.Fatal(err)
	}
	if f.MappedPPN(7) == old {
		t.Error("overwrite did not move the page (in-place update?)")
	}
	addr := nand.AddrOfPPN(old, 16)
	st, err := f.Device().PageStateAt(addr)
	if err != nil {
		t.Fatal(err)
	}
	if st != nand.PageInvalid {
		t.Errorf("old page state = %v, want invalid", st)
	}
	if got := f.Stats().HostPrograms; got != 2 {
		t.Errorf("host programs = %d, want 2", got)
	}
}

// fillUser writes every user page once.
func fillUser(t *testing.T, f *FTL) {
	t.Helper()
	for lpn := int64(0); lpn < f.UserPages(); lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			t.Fatalf("fill write %d: %v", lpn, err)
		}
	}
}

func TestForegroundGCTriggersWhenPoolExhausted(t *testing.T) {
	f := newSmall(t)
	fillUser(t, f)
	// Overwrite enough to exhaust the free pool; FGC must kick in and keep
	// the device writable.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < int(3*f.UserPages()); i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	st := f.Stats()
	if st.FGCInvocations == 0 {
		t.Error("no FGC despite pool exhaustion")
	}
	if st.Erases == 0 {
		t.Error("no erases despite GC")
	}
	if st.WAF() <= 1 {
		t.Errorf("WAF = %v, want > 1 after GC", st.WAF())
	}
	if st.FGCTime <= 0 {
		t.Error("FGC time not accounted")
	}
}

// TestMappingInvariants drives random traffic and verifies the core FTL
// invariants: L2P/P2L are mutually consistent and injective, valid counts
// match live mappings, and page accounting adds up.
func TestMappingInvariants(t *testing.T) {
	f := newSmall(t)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%500 == 0 {
			if _, err := f.ReclaimBackground(16, 0); err != nil {
				t.Fatalf("reclaim: %v", err)
			}
		}
	}
	checkInvariants(t, f)
}

// checkInvariants asserts the FTL's structural invariants.
func checkInvariants(t *testing.T, f *FTL) {
	t.Helper()
	geo := f.cfg.Geometry
	ppb := geo.PagesPerBlock

	seen := make(map[int64]int64) // ppn → lpn
	live := int64(0)
	for lpn := int64(0); lpn < f.UserPages(); lpn++ {
		ppn := f.l2p.at(lpn)
		if ppn == unmapped {
			continue
		}
		live++
		if prev, dup := seen[ppn]; dup {
			t.Fatalf("PPN %d mapped by both %d and %d", ppn, prev, lpn)
		}
		seen[ppn] = lpn
		if f.p2l.at(ppn) != lpn {
			t.Fatalf("p2l[%d] = %d, want %d", ppn, f.p2l.at(ppn), lpn)
		}
		st, err := f.Device().PageStateAt(nand.AddrOfPPN(ppn, ppb))
		if err != nil {
			t.Fatal(err)
		}
		if st != nand.PageValid {
			t.Fatalf("mapped page %d in state %v", ppn, st)
		}
	}
	// Per-block valid counts must equal the number of mapped pages there.
	perBlock := make([]int, geo.TotalBlocks())
	for ppn := range seen {
		perBlock[int(ppn)/ppb]++
	}
	var validTotal int64
	for b := 0; b < geo.TotalBlocks(); b++ {
		if got := f.Device().ValidCount(b); got != perBlock[b] {
			t.Fatalf("block %d ValidCount = %d, mapping says %d", b, got, perBlock[b])
		}
		validTotal += int64(f.Device().ValidCount(b))
	}
	if validTotal != live {
		t.Fatalf("valid pages %d != live mappings %d", validTotal, live)
	}
}

func TestReclaimBackground(t *testing.T) {
	f := newSmall(t)
	fillUser(t, f)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatal(err)
		}
	}
	before := f.FreePages()
	res, err := f.ReclaimBackground(20, 0)
	if err != nil {
		t.Fatalf("ReclaimBackground: %v", err)
	}
	if res.FreedPages < 20 {
		t.Errorf("freed %d pages, want ≥ 20", res.FreedPages)
	}
	if f.FreePages()-before != res.FreedPages {
		t.Errorf("freed accounting mismatch: %d vs %d", f.FreePages()-before, res.FreedPages)
	}
	if res.CollectedBlocks == 0 || res.Elapsed == 0 {
		t.Errorf("result = %+v", res)
	}
	if got := f.Stats().BGCCollections; got != int64(res.CollectedBlocks) {
		t.Errorf("BGC collections = %d, want %d", got, res.CollectedBlocks)
	}
	checkInvariants(t, f)
}

func TestReclaimBackgroundTimeBudget(t *testing.T) {
	f := newSmall(t)
	fillUser(t, f)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatal(err)
		}
	}
	res, err := f.ReclaimBackground(1<<20, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.CollectedBlocks > 1 {
		t.Errorf("budgeted reclaim collected %d blocks, want ≤ 1", res.CollectedBlocks)
	}
}

func TestCollectBackgroundOnce(t *testing.T) {
	f := newSmall(t)
	fillUser(t, f)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatal(err)
		}
	}
	freed, d, err := f.CollectBackgroundOnce()
	if err != nil {
		t.Fatalf("CollectBackgroundOnce: %v", err)
	}
	if freed <= 0 || d <= 0 {
		t.Errorf("freed %d in %v, want positive", freed, d)
	}
}

func TestGCDataSafety(t *testing.T) {
	// After heavy traffic with GC, every live LPN must still map to a
	// distinct valid physical page (no data lost or aliased).
	f := newSmall(t)
	r := rand.New(rand.NewSource(11))
	written := make(map[int64]bool)
	for i := 0; i < 5000; i++ {
		lpn := r.Int63n(f.UserPages())
		if _, _, err := f.Write(lpn); err != nil {
			t.Fatal(err)
		}
		written[lpn] = true
	}
	for lpn := range written {
		if f.MappedPPN(lpn) == -1 {
			t.Errorf("lpn %d lost after GC", lpn)
		}
		if _, err := f.Read(lpn); err != nil {
			t.Errorf("read lpn %d: %v", lpn, err)
		}
	}
	checkInvariants(t, f)
}

func TestResetStatsPreservesWear(t *testing.T) {
	f := newSmall(t)
	fillUser(t, f)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < int(2*f.UserPages()); i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatal(err)
		}
	}
	_, maxBefore, _ := f.Device().WearStats()
	if maxBefore == 0 {
		t.Fatal("setup: no erases happened")
	}
	f.ResetStats()
	if f.Stats().HostPrograms != 0 || f.Stats().Erases != 0 {
		t.Error("stats not reset")
	}
	_, maxAfter, _ := f.Device().WearStats()
	if maxAfter != maxBefore {
		t.Error("ResetStats changed wear state")
	}
}

func TestBandwidthEstimates(t *testing.T) {
	f := newSmall(t)
	if bw := f.WriteBandwidth(); bw <= 0 {
		t.Errorf("write bandwidth = %v", bw)
	}
	if bgc := f.GCBandwidth(); bgc <= 0 {
		t.Errorf("GC bandwidth = %v", bgc)
	}
	// GC cannot reclaim faster than the device programs.
	if f.GCBandwidth() >= f.WriteBandwidth() {
		t.Errorf("Bgc %v ≥ Bw %v", f.GCBandwidth(), f.WriteBandwidth())
	}
}

func TestWAFDefinition(t *testing.T) {
	var s Stats
	if s.WAF() != 1 {
		t.Errorf("zero-write WAF = %v, want 1", s.WAF())
	}
	s.HostPrograms = 100
	s.GCMigrations = 50
	if s.WAF() != 1.5 {
		t.Errorf("WAF = %v, want 1.5", s.WAF())
	}
}

func TestPayloadIntegrityThroughGC(t *testing.T) {
	// Heavy overwrite traffic with GC must never alias payloads: every
	// read's token must match its logical page (Read checks this).
	f := newSmall(t)
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 6000; i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatal(err)
		}
	}
	for lpn := int64(0); lpn < f.UserPages(); lpn++ {
		if f.MappedPPN(lpn) == -1 {
			continue
		}
		if _, err := f.Read(lpn); err != nil {
			t.Fatalf("read lpn %d after GC: %v", lpn, err)
		}
	}
}

func TestWearOutShrinksAndEventuallyKillsDevice(t *testing.T) {
	cfg := smallConfig()
	cfg.EnduranceLimit = 4
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillUser(t, f)
	r := rand.New(rand.NewSource(31))
	var writeErr error
	writes := 0
	for i := 0; i < 1_000_000; i++ {
		if _, _, writeErr = f.Write(r.Int63n(f.UserPages())); writeErr != nil {
			break
		}
		writes++
	}
	if writeErr == nil {
		t.Fatal("device survived unbounded writes despite endurance limit 4")
	}
	if !errors.Is(writeErr, ErrNoFreeBlocks) && !errors.Is(writeErr, nand.ErrWornOut) {
		t.Errorf("death error = %v", writeErr)
	}
	if f.Device().RetiredBlocks() == 0 {
		t.Error("no blocks retired at death")
	}
	if writes < int(f.UserPages()) {
		t.Errorf("device died after only %d writes", writes)
	}
}

// TestRandomTrafficInvariantsProperty drives many short random traffic
// mixes (writes, trims, background reclaim) through small FTLs and checks
// the structural invariants after each, via testing/quick seeding.
func TestRandomTrafficInvariantsProperty(t *testing.T) {
	run := func(seed int64) bool {
		f, err := New(smallConfig())
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 800; i++ {
			lpn := r.Int63n(f.UserPages())
			switch r.Intn(10) {
			case 0:
				if err := f.Trim(lpn); err != nil {
					return false
				}
			case 1:
				if _, err := f.ReclaimBackground(8, 0); err != nil {
					return false
				}
			default:
				if _, _, err := f.Write(lpn); err != nil {
					return false
				}
			}
		}
		// Inline invariant check (checkInvariants calls t.Fatal; reproduce
		// the core conditions boolean-style).
		seen := make(map[int64]bool)
		var live int64
		for lpn := int64(0); lpn < f.UserPages(); lpn++ {
			ppn := f.l2p.at(lpn)
			if ppn == unmapped {
				continue
			}
			if seen[ppn] || f.p2l.at(ppn) != lpn {
				return false
			}
			seen[ppn] = true
			live++
		}
		var valid int64
		for b := 0; b < f.cfg.Geometry.TotalBlocks(); b++ {
			valid += int64(f.Device().ValidCount(b))
		}
		return valid == live
	}
	for seed := int64(0); seed < 12; seed++ {
		if !run(seed) {
			t.Fatalf("invariants violated for seed %d", seed)
		}
	}
}
