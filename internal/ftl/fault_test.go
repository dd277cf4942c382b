package ftl

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"jitgc/internal/nand"
	"jitgc/internal/telemetry"
)

// recoveringConfig returns smallConfig with the recovery policies enabled
// but no random fault rates, so tests arm targeted one-shot faults.
func recoveringConfig() Config {
	cfg := smallConfig()
	cfg.Recovery.Enabled = true
	return cfg
}

func newRecovering(t *testing.T) *FTL {
	t.Helper()
	f, err := New(recoveringConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// dirty makes GC victims: fill user capacity, then overwrite randomly.
func dirty(t *testing.T, f *FTL, overwrites int) {
	t.Helper()
	fillUser(t, f)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < overwrites; i++ {
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
}

// TestReclaimBackgroundPropagatesDeviceError is the regression test for
// the swallowed-error bug: ReclaimBackground used to treat every
// collectOnce error as "out of victims" and return nil. A raw injector
// (no recovery) making one erase fail must surface ErrInjected.
func TestReclaimBackgroundPropagatesDeviceError(t *testing.T) {
	f := newSmall(t)
	dirty(t, f, 300)

	fm := nand.NewFaultModel(nand.FaultConfig{Seed: 1})
	f.Device().SetFaultInjector(fm)
	fm.FailNext(nand.OpErase, 1)

	_, err := f.ReclaimBackground(1<<20, 0)
	if !errors.Is(err, nand.ErrInjected) {
		t.Fatalf("ReclaimBackground error = %v, want ErrInjected to propagate", err)
	}
	// Exhausting the victims without a device error still ends cleanly.
	f.Device().SetFaultInjector(nil)
	if _, err := f.ReclaimBackground(1<<20, 0); err != nil {
		t.Fatalf("out-of-victims reclaim: %v", err)
	}
}

// countGC returns the number of gc_start and gc_end events and fails the
// test if the stream is ever more "ended" than "started" (ordered pairing,
// not just equal totals).
func countGC(t *testing.T, events []telemetry.Event) (starts, ends int) {
	t.Helper()
	open := 0
	for _, ev := range events {
		switch ev.Type {
		case telemetry.EvGCStart:
			starts++
			open++
		case telemetry.EvGCEnd:
			ends++
			open--
			if open < 0 {
				t.Fatalf("gc_end without a matching gc_start at t=%v", ev.T)
			}
		}
	}
	return starts, ends
}

// TestGCPairingOnMigrateError: a device error in the migrate loop must
// still emit the terminal gc_end (the trace stream pairs 1:1 even when the
// collection aborts).
func TestGCPairingOnMigrateError(t *testing.T) {
	f := newSmall(t)
	ring, err := telemetry.NewRingSink(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	f.SetTracer(telemetry.New(ring))
	dirty(t, f, 300)

	fm := nand.NewFaultModel(nand.FaultConfig{Seed: 1})
	f.Device().SetFaultInjector(fm)
	fm.FailNext(nand.OpRead, 1)

	if _, err := f.ReclaimBackground(1<<20, 0); !errors.Is(err, nand.ErrInjected) {
		t.Fatalf("reclaim error = %v, want ErrInjected", err)
	}
	starts, ends := countGC(t, ring.Events())
	if starts == 0 || starts != ends {
		t.Fatalf("%d gc_start vs %d gc_end after aborted collection", starts, ends)
	}
}

// TestWriteSeqGapFree: failed programs must not burn sequence numbers —
// the tokens of n distinct written pages carry exactly the sequences 1..n
// even with injected program faults along the way.
func TestWriteSeqGapFree(t *testing.T) {
	f := newRecovering(t)
	const n = 50
	for lpn := int64(0); lpn < n; lpn++ {
		if lpn == 10 || lpn == 30 {
			f.FaultModel().FailNext(nand.OpProgram, 1)
		}
		if _, _, err := f.Write(lpn); err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
	}
	st := f.Stats()
	if st.ProgramFaults != 2 || st.SkippedPages != 2 {
		t.Errorf("ProgramFaults=%d SkippedPages=%d, want 2/2", st.ProgramFaults, st.SkippedPages)
	}
	seqs := make([]int, 0, n)
	ppb := f.Config().Geometry.PagesPerBlock
	for lpn := int64(0); lpn < n; lpn++ {
		ppn := f.MappedPPN(lpn)
		if ppn < 0 {
			t.Fatalf("lpn %d unmapped", lpn)
		}
		tok, _, err := f.Device().PeekPage(nand.AddrOfPPN(ppn, ppb))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, int(tok&(1<<tokenVersionBits-1)))
	}
	sort.Ints(seqs)
	for i, s := range seqs {
		if s != i+1 {
			t.Fatalf("token sequence has a gap: position %d holds seq %d (all: %v)", i, s, seqs)
		}
	}
}

// TestProgramFaultRecovery: a single failed program is absorbed by
// skipping the bad page and retrying; the write succeeds and the map
// stays consistent.
func TestProgramFaultRecovery(t *testing.T) {
	f := newRecovering(t)
	f.FaultModel().FailNext(nand.OpProgram, 1)
	if _, _, err := f.Write(7); err != nil {
		t.Fatalf("write through program fault: %v", err)
	}
	st := f.Stats()
	if st.ProgramFaults != 1 || st.SkippedPages != 1 || st.RetiredByFault != 0 {
		t.Errorf("stats = %+v", st)
	}
	if f.MappedPPN(7) < 0 {
		t.Error("lpn 7 unmapped after recovered write")
	}
	if d, err := f.Read(7); err != nil || d <= 0 {
		t.Errorf("read back: d=%v err=%v", d, err)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestProgramFaultRetiresBlock: the retirement threshold of consecutive
// program failures takes the block out of service and the write completes
// on a fresh block.
func TestProgramFaultRetiresBlock(t *testing.T) {
	f := newRecovering(t)
	f.FaultModel().FailNext(nand.OpProgram, 3) // == default threshold
	if _, _, err := f.Write(7); err != nil {
		t.Fatalf("write through block retirement: %v", err)
	}
	st := f.Stats()
	if st.ProgramFaults != 3 || st.RetiredByFault != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := f.Device().RetiredBlocks(); got != 1 {
		t.Errorf("%d retired blocks, want 1", got)
	}
	if f.MappedPPN(7) < 0 {
		t.Error("lpn 7 unmapped after recovered write")
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestEraseFaultRetiresVictim: with recovery on, a failed erase retires
// the victim (it never re-enters the free pool) and background reclaim
// carries on instead of aborting.
func TestEraseFaultRetiresVictim(t *testing.T) {
	f := newRecovering(t)
	dirty(t, f, 300)
	f.FaultModel().FailNext(nand.OpErase, 1)

	// The first reclaim hits the erase fault: the victim retires, frees
	// nothing, and the no-forward-progress guard ends the call cleanly —
	// without aborting.
	res, err := f.ReclaimBackground(20, 0)
	if err != nil {
		t.Fatalf("reclaim across erase fault: %v", err)
	}
	st := f.Stats()
	if st.EraseFaults != 1 || st.RetiredByFault != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := f.Device().RetiredBlocks(); got != 1 {
		t.Errorf("%d retired blocks, want 1", got)
	}
	// The retired collection still counts as BGC work (it migrated pages).
	if int64(res.CollectedBlocks) != st.BGCCollections {
		t.Errorf("CollectedBlocks %d vs BGCCollections %d", res.CollectedBlocks, st.BGCCollections)
	}
	if st.BGCTime <= 0 {
		t.Error("retired collection's migration time not accounted in BGCTime")
	}
	// The device keeps reclaiming from the surviving blocks.
	res, err = f.ReclaimBackground(20, 0)
	if err != nil {
		t.Fatalf("reclaim after retirement: %v", err)
	}
	if res.FreedPages < 20 {
		t.Errorf("freed %d pages after retirement, want ≥ 20", res.FreedPages)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestWornOutVictimAccountsBGCTime is the regression test for the
// accounting bug: a collection whose victim retires at its erase limit
// still did its migration work and must appear in BGCCollections/BGCTime.
func TestWornOutVictimAccountsBGCTime(t *testing.T) {
	cfg := smallConfig()
	cfg.EnduranceLimit = 3
	cfg.WearThreshold = 0
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillUser(t, f)
	// Interleave small overwrite batches with background collections until
	// a BGC victim hits the erase endurance limit mid-collection. Keeping
	// the batches small makes BGC, not foreground GC, perform most erases.
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 400; round++ {
		for i := 0; i < 8; i++ {
			if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
				t.Fatalf("round %d: device died before a BGC wear-out was observed: %v", round, err)
			}
		}
		before := f.Stats()
		retiredBefore := f.Device().RetiredBlocks()
		if _, _, err := f.CollectBackgroundOnce(); err != nil {
			t.Fatalf("round %d collect: %v", round, err)
		}
		if f.Device().RetiredBlocks() == retiredBefore {
			continue
		}
		// This collection's victim retired at its erase limit. Its
		// migration work must still be accounted to BGC.
		st := f.Stats()
		if st.BGCCollections != before.BGCCollections+1 {
			t.Errorf("retired collection not counted: BGCCollections %d → %d",
				before.BGCCollections, st.BGCCollections)
		}
		if st.Erases != before.Erases {
			t.Errorf("retired collection bumped Erases: %d → %d", before.Erases, st.Erases)
		}
		if st.GCMigrations > before.GCMigrations && st.BGCTime <= before.BGCTime {
			t.Errorf("migration time of the retired collection not accounted: BGCTime %v → %v",
				before.BGCTime, st.BGCTime)
		}
		return
	}
	t.Fatal("no BGC victim hit the endurance limit in 100 rounds")
}

// TestReadRetryRecovers: one injected read failure is absorbed by a retry.
func TestReadRetryRecovers(t *testing.T) {
	f := newRecovering(t)
	if _, _, err := f.Write(3); err != nil {
		t.Fatal(err)
	}
	f.FaultModel().FailNext(nand.OpRead, 1)
	if _, err := f.Read(3); err != nil {
		t.Fatalf("read through transient fault: %v", err)
	}
	st := f.Stats()
	if st.ReadRetries != 1 || st.UnrecoverableReads != 0 {
		t.Errorf("stats = %+v", st)
	}
	if f.MappedPPN(3) < 0 {
		t.Error("recovered read dropped the mapping")
	}
}

// TestUnrecoverableReadDropsMapping: a read that exhausts its retry budget
// loses the page — the mapping is dropped (later reads take the zero-fill
// path), the run does not abort, and the map stays consistent.
func TestUnrecoverableReadDropsMapping(t *testing.T) {
	f := newRecovering(t)
	if _, _, err := f.Write(3); err != nil {
		t.Fatal(err)
	}
	f.FaultModel().FailNext(nand.OpRead, 4) // 1 try + 3 retries, all fail
	if _, err := f.Read(3); err != nil {
		t.Fatalf("unrecoverable read aborted the operation: %v", err)
	}
	st := f.Stats()
	if st.UnrecoverableReads != 1 || st.ReadRetries != 3 {
		t.Errorf("stats = %+v", st)
	}
	if ppn := f.MappedPPN(3); ppn != -1 {
		t.Errorf("lost page still mapped to ppn %d", ppn)
	}
	// Subsequent reads serve zeroes via the unmapped path.
	if d, err := f.Read(3); err != nil || d != f.Device().Timing().Transfer {
		t.Errorf("read after loss: d=%v err=%v", d, err)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestGCPairingWithRecoveredFaults drives sustained traffic with random
// fault rates and checks the trace stream still pairs gc_start/gc_end 1:1
// and reports every new event type, with the map consistent throughout.
func TestGCPairingWithRecoveredFaults(t *testing.T) {
	cfg := smallConfig()
	// Twice the blocks of smallConfig so fault-driven retirements do not
	// exhaust the spare capacity mid-test.
	cfg.Geometry.BlocksPerChip = 16
	cfg.Fault = nand.FaultConfig{Seed: 11, ReadRate: 0.005, ProgramRate: 0.02, EraseRate: 0.01}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := telemetry.NewRingSink(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	f.SetTracer(telemetry.New(ring))

	fillUser(t, f)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 1500; i++ {
		if i == 700 {
			// One guaranteed erase fault on top of the random rates, so the
			// erase-recovery path is exercised regardless of seed luck.
			f.FaultModel().FailNext(nand.OpErase, 1)
		}
		if _, _, err := f.Write(r.Int63n(f.UserPages())); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%200 == 0 {
			if _, err := f.ReclaimBackground(16, 0); err != nil {
				t.Fatalf("reclaim %d: %v", i, err)
			}
		}
	}
	starts, ends := countGC(t, ring.Events())
	if starts == 0 || starts != ends {
		t.Fatalf("%d gc_start vs %d gc_end under faults", starts, ends)
	}
	byType := map[telemetry.EventType]int{}
	for _, ev := range ring.Events() {
		byType[ev.Type]++
	}
	if byType[telemetry.EvFault] == 0 {
		t.Error("no fault_injected events at 3-5%% rates")
	}
	st := f.Stats()
	if st.ProgramFaults == 0 || st.EraseFaults == 0 {
		t.Errorf("faults not absorbed: %+v", st)
	}
	if st.RetiredByFault > 0 && byType[telemetry.EvBlockRetired] == 0 {
		t.Error("blocks retired but no block_retired events")
	}
	if got := f.FaultModel().InjectedTotal(); got == 0 {
		t.Error("fault model reports no injections")
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
