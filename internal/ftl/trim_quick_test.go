package ftl

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/nand"
)

// trimStep drives one operation of a trim-heavy mix: multi-page extent
// TRIMs carry ~30% of the operation budget (the discard-on-unlink regime
// the FileChurn workload presents), interleaved with single and burst
// writes, reads and explicit background collections.
func (m *ftlModel) trimStep() {
	switch m.rng.Intn(9) {
	case 0, 1, 2: // single-page write
		m.write(m.lpn())
	case 3: // short sequential burst (a small file landing)
		start := m.lpn()
		n := int64(m.rng.Intn(6) + 1)
		for lpn := start; lpn < start+n && lpn < m.ws; lpn++ {
			m.write(lpn)
		}
	case 4, 5, 6: // extent TRIM (a whole small file unlinked)
		start := m.lpn()
		n := int64(m.rng.Intn(8) + 1)
		for lpn := start; lpn < start+n && lpn < m.ws; lpn++ {
			if err := m.f.Trim(lpn); err != nil {
				m.t.Fatalf("Trim(%d): %v", lpn, err)
			}
			delete(m.shadow, lpn)
		}
	case 7: // host read of a random page (mapped, trimmed, or never written)
		lpn := m.lpn()
		if _, err := m.f.Read(lpn); err != nil {
			m.t.Fatalf("Read(%d): %v", lpn, err)
		}
	case 8: // background collection, one victim
		if _, _, err := m.f.CollectBackgroundOnce(); err != nil &&
			!errors.Is(err, ErrNoFreeBlocks) {
			m.t.Fatalf("CollectBackgroundOnce: %v", err)
		}
	}
	m.now += time.Duration(m.rng.Intn(2000)) * time.Microsecond
	m.f.SetNow(m.now)
}

// verifyTrimmed layers the live-footprint check on top of verify: the
// cached mapped-page counter the effective-OP accounting reads must equal
// the shadow model's live page count exactly.
func (m *ftlModel) verifyTrimmed() {
	m.verify()
	if got, want := m.f.MappedPages(), int64(len(m.shadow)); got != want {
		m.t.Fatalf("MappedPages() = %d, shadow holds %d live pages", got, want)
	}
}

// TestQuickTrimHeavyInterleavings is the trim-heavy property sweep from
// the issue: random write/trim/GC interleavings against the shadow model,
// with CheckConsistency's trimmed-page invariant and the MappedPages
// counter re-verified throughout.
func TestQuickTrimHeavyInterleavings(t *testing.T) {
	steps := 300
	maxCount := 24
	if testing.Short() {
		steps = 120
		maxCount = 8
	}
	prop := func(seed int64) bool {
		m := newFTLModel(t, seed)
		trims := func() int64 { return m.f.Stats().Trims }
		for i := 0; i < steps; i++ {
			m.trimStep()
			if i%25 == 24 {
				m.verifyTrimmed()
			}
		}
		m.verifyTrimmed()
		if trims() == 0 {
			t.Fatal("trim-heavy sweep performed no effective TRIMs")
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTrimHeavyFaultInterleavings runs the same trim-heavy mix on a
// recovering FTL with program and erase faults injected throughout (the
// write/trim/GC/fault mix from the issue). Read faults are left at zero so
// the shadow stays exact — an unrecoverable read would drop a mapping the
// trim accounting must then agree with, which the generic fault sweep
// already covers via the telemetry sink.
func TestQuickTrimHeavyFaultInterleavings(t *testing.T) {
	steps := 300
	maxCount := 12
	if testing.Short() {
		steps = 120
		maxCount = 4
	}
	var injected int64
	prop := func(seed int64) bool {
		cfg := quickGeometry()
		cfg.Fault = nand.FaultConfig{
			Seed:        seed,
			ProgramRate: 0.02,
			EraseRate:   0.005,
		}
		cfg.Recovery.Enabled = true
		f, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		m := newFTLModel(t, seed^0x7417)
		m.f = f
		for i := 0; i < steps; i++ {
			m.trimStep()
			if i%25 == 24 {
				m.verifyTrimmed()
			}
		}
		m.verifyTrimmed()
		injected += m.f.FaultModel().InjectedTotal()
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
	if injected == 0 {
		t.Fatal("fault sweep injected no faults")
	}
}
