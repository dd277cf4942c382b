package ftl

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/nand"
)

// quickGeometry is a deliberately tiny array (32 blocks × 8 pages) so that
// random op sequences cross block boundaries, trigger foreground GC, and
// wrap the free pool many times within a few hundred operations.
func quickGeometry() Config {
	cfg := DefaultConfig()
	cfg.Geometry = nand.Geometry{
		Channels:        2,
		ChipsPerChannel: 1,
		BlocksPerChip:   16,
		PagesPerBlock:   8,
		PageSize:        4096,
	}
	cfg.OPRatio = 0.25
	cfg.WearThreshold = 16
	return cfg
}

// ftlModel drives an FTL with a random interleaving of host writes, TRIMs,
// background collections and SIP list updates, while keeping a shadow copy
// of what every logical page must contain.
type ftlModel struct {
	t      *testing.T
	f      *FTL
	rng    *rand.Rand
	now    time.Duration
	shadow map[int64]uint64 // lpn → expected payload token of the last write
	ws     int64            // working-set bound for generated LPNs
}

func newFTLModel(t *testing.T, seed int64) *ftlModel {
	return newFTLModelOn(t, seed, quickGeometry())
}

// oddGeometry is quickGeometry at 26 blocks: not a power of two, so the
// victim tournament has padding leaves and a ragged last level.
func oddGeometry() Config {
	cfg := quickGeometry()
	cfg.Geometry.BlocksPerChip = 13
	return cfg
}

func newFTLModelOn(t *testing.T, seed int64, cfg Config) *ftlModel {
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &ftlModel{
		t:      t,
		f:      f,
		rng:    rand.New(rand.NewSource(seed)),
		shadow: make(map[int64]uint64),
		ws:     f.UserPages() * 3 / 4,
	}
}

func (m *ftlModel) lpn() int64 {
	// Skew half the traffic into a hot eighth of the working set so
	// overwrites (and therefore invalid pages and GC) happen early.
	if m.rng.Intn(2) == 0 {
		return m.rng.Int63n(m.ws/8 + 1)
	}
	return m.rng.Int63n(m.ws)
}

func (m *ftlModel) step() {
	switch m.rng.Intn(9) {
	case 0, 1, 2, 3: // single-page write
		m.write(m.lpn())
	case 4: // short sequential burst
		start := m.lpn()
		n := int64(m.rng.Intn(6) + 1)
		for lpn := start; lpn < start+n && lpn < m.ws; lpn++ {
			m.write(lpn)
		}
	case 5: // TRIM
		lpn := m.lpn()
		if err := m.f.Trim(lpn); err != nil {
			m.t.Fatalf("Trim(%d): %v", lpn, err)
		}
		delete(m.shadow, lpn)
	case 6: // host read of a random page (mapped or not)
		lpn := m.lpn()
		if _, err := m.f.Read(lpn); err != nil {
			m.t.Fatalf("Read(%d): %v", lpn, err)
		}
	case 7: // background collection, one victim
		if _, _, err := m.f.CollectBackgroundOnce(); err != nil &&
			!errors.Is(err, ErrNoFreeBlocks) {
			m.t.Fatalf("CollectBackgroundOnce: %v", err)
		}
	case 8: // SIP set replaced or changed (random subsets, some LPNs out of range)
		lpns := make([]int64, m.rng.Intn(16))
		for i := range lpns {
			lpns[i] = m.rng.Int63n(m.f.UserPages() + 10)
		}
		cut := m.rng.Intn(len(lpns) + 1)
		m.f.UpdateSIP(m.rng.Intn(2) == 0, lpns[:cut], lpns[cut:])
	}
	// Device time moves forward between operations.
	m.now += time.Duration(m.rng.Intn(2000)) * time.Microsecond
	m.f.SetNow(m.now)
}

func (m *ftlModel) write(lpn int64) {
	if _, _, err := m.f.Write(lpn); err != nil {
		m.t.Fatalf("Write(%d): %v", lpn, err)
	}
	m.shadow[lpn] = token(lpn, m.f.writeSeq)
}

// verify checks the FTL invariants plus the shadow model: every written
// (and not since trimmed) logical page must be mapped and hold the payload
// token of its last write; every other page must be unmapped.
func (m *ftlModel) verify() {
	if err := m.f.CheckConsistency(); err != nil {
		m.t.Fatalf("CheckConsistency: %v", err)
	}
	mapped := int64(0)
	for lpn := int64(0); lpn < m.f.UserPages(); lpn++ {
		ppn := m.f.MappedPPN(lpn)
		want, live := m.shadow[lpn]
		if !live {
			if ppn != unmapped {
				m.t.Fatalf("lpn %d should be unmapped, maps to ppn %d", lpn, ppn)
			}
			continue
		}
		mapped++
		if ppn == unmapped {
			m.t.Fatalf("lpn %d lost its mapping (last write seq %d)", lpn, want&(1<<tokenVersionBits-1))
		}
		tok, _, err := m.f.Device().PeekPage(nand.AddrOfPPN(ppn, m.f.cfg.Geometry.PagesPerBlock))
		if err != nil {
			m.t.Fatalf("PeekPage(lpn %d): %v", lpn, err)
		}
		if tok != want {
			m.t.Fatalf("lpn %d holds token %#x, want %#x (stale or aliased copy)", lpn, tok, want)
		}
	}
	// Valid-page balance at the device level: exactly one valid physical
	// page per live logical page, no leaks.
	var valid int64
	for b := 0; b < m.f.cfg.Geometry.TotalBlocks(); b++ {
		valid += int64(m.f.Device().ValidCount(b))
	}
	if valid != mapped {
		m.t.Fatalf("%d valid physical pages for %d live logical pages", valid, mapped)
	}
}

// TestQuickFTLInterleavings is the property sweep: testing/quick supplies
// random seeds, each seed drives a few hundred random FTL operations, and
// the full invariant set is re-verified throughout.
func TestQuickFTLInterleavings(t *testing.T) {
	steps := 300
	maxCount := 24
	if testing.Short() {
		steps = 120
		maxCount = 8
	}
	prop := func(seed int64) bool {
		m := newFTLModel(t, seed)
		for i := 0; i < steps; i++ {
			m.step()
			if i%25 == 24 {
				m.verify()
			}
		}
		m.verify()
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWriteTrimMapping drives write/TRIM-only interleavings (no
// explicit GC) at higher volume: the mapping alone must stay injective
// and balanced even while foreground GC fires implicitly under pressure.
func TestQuickWriteTrimMapping(t *testing.T) {
	prop := func(seed int64) bool {
		m := newFTLModel(t, seed)
		for i := 0; i < 400; i++ {
			lpn := m.lpn()
			if m.rng.Intn(5) == 0 {
				if err := m.f.Trim(lpn); err != nil {
					t.Fatalf("Trim(%d): %v", lpn, err)
				}
				delete(m.shadow, lpn)
			} else {
				m.write(lpn)
			}
		}
		m.verify()
		return true
	}
	cfg := &quick.Config{MaxCount: 16}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
