package ftl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jitgc/internal/nand"
	"jitgc/internal/telemetry"
)

// shadowSink applies telemetry events to the shadow model synchronously.
// Tracer sinks are invoked inline from the FTL datapath, so by the time a
// Write/Read/Collect call returns, every shadow mutation its recovered
// faults imply has already been applied — the event stream is the only
// way the model can learn that an unrecoverable read dropped a mapping
// mid-operation (e.g. during a GC migration).
type shadowSink struct {
	shadow map[int64]uint64
	faults int
}

func (s *shadowSink) Emit(ev telemetry.Event) {
	switch ev.Type {
	case telemetry.EvFault:
		s.faults++
	case telemetry.EvReadRetry:
		if !ev.Recovered {
			delete(s.shadow, ev.LPN)
		}
	}
}

func (s *shadowSink) Close() error { return nil }

// newFaultModelFTL builds the quick-sweep model on a recovering FTL with
// low background fault rates on every op class. The shadow sink keeps the
// expected mapping honest across recovered faults.
func newFaultModelFTL(t *testing.T, seed int64) (*ftlModel, *shadowSink) {
	return newFaultModelFTLOn(t, seed, quickGeometry())
}

func newFaultModelFTLOn(t *testing.T, seed int64, cfg Config) (*ftlModel, *shadowSink) {
	cfg.Fault = nand.FaultConfig{
		Seed:        seed,
		ReadRate:    0.002,
		ProgramRate: 0.01,
		EraseRate:   0.002,
	}
	cfg.Recovery.Enabled = true
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := &ftlModel{
		t:      t,
		f:      f,
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		shadow: make(map[int64]uint64),
		ws:     f.UserPages() * 3 / 4,
	}
	sink := &shadowSink{shadow: m.shadow}
	f.SetTracer(telemetry.New(sink))
	return m, sink
}

// TestQuickFaultInterleavings is the recovery property sweep: the same
// random interleaving of writes, TRIMs, reads, collections and SIP updates
// as TestQuickFTLInterleavings, but with a low-rate FaultModel injecting
// read, program and erase failures throughout. The full invariant set
// (CheckConsistency plus shadow-model agreement) must hold at every
// checkpoint: recovered faults may shrink the device or drop unrecoverable
// pages, but must never corrupt the address map.
//
// Read faults at realistic rates essentially never exhaust the retry
// budget (the unrecoverable probability is rate^4), so the sweep also
// arms a targeted burst every ~60 steps that deterministically drives
// one read sequence past the limit and exercises the drop-mapping path.
func TestQuickFaultInterleavings(t *testing.T) {
	steps := 300
	maxCount := 16
	if testing.Short() {
		steps = 120
		maxCount = 6
	}
	prop := func(seed int64) bool {
		m, sink := newFaultModelFTL(t, seed)
		burst := maxReadRetries + 1
		for i := 0; i < steps; i++ {
			if i%60 == 59 {
				m.f.FaultModel().FailNext(nand.OpRead, burst)
			}
			m.step()
			if i%25 == 24 {
				m.verify()
			}
		}
		m.verify()
		if m.f.FaultModel().InjectedTotal() == 0 {
			m.t.Fatal("fault sweep injected no faults")
		}
		if sink.faults == 0 {
			m.t.Fatal("no fault_injected events reached the sink")
		}
		st := m.f.Stats()
		if st.UnrecoverableReads == 0 {
			m.t.Fatal("targeted read bursts never exhausted the retry budget")
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}
