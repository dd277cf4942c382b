package sim

import (
	"testing"
	"time"

	"jitgc/internal/core"
	"jitgc/internal/ftl"
	"jitgc/internal/trace"
)

func jitFactory(env *Env) (core.Policy, error) {
	env.FTL.SetSelector(ftl.SIPGreedy{MaxSIPFraction: 0.3, SlackPages: 4})
	return core.NewJITGC(env.Cache, core.JITOptions{})
}

// TestJITGCTickSteadyStateZeroAlloc: on a warm JIT-GC simulator a whole
// write-back interval — the host rewriting the wave of pages the last
// boundary flushed plus a few hot ones, then TickFlush, TickDecide and
// TickApply — allocates nothing: the flusher, the write-back into the FTL,
// the cache scan with its ghosts, the decision and the SIP update all run in
// buffers that have reached their size.
func TestJITGCTickSteadyStateZeroAlloc(t *testing.T) {
	cfg := tinyConfig()
	cfg.PreconditionPages = 300
	cfg.StreamingLatency = true // the exact recorder keeps every sample
	s := newSim(t, cfg, jitFactory)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	const wavePages = 40
	period, waves := cfg.Cache.FlusherPeriod, cfg.Cache.Nwb()+1
	var now time.Duration
	wave := 0
	tick := func() {
		reqs := [2]trace.Request{
			{Time: now + period/2, Kind: trace.BufferedWrite, LPN: int64(wave * wavePages), Pages: wavePages},
			{Time: now + period/2, Kind: trace.BufferedWrite, LPN: int64(waves * wavePages), Pages: 4},
		}
		for _, r := range reqs {
			if _, err := s.StepRequest(r); err != nil {
				t.Fatal(err)
			}
		}
		wave = (wave + 1) % waves
		now += period
		if err := s.TickFlush(now); err != nil {
			t.Fatal(err)
		}
		s.TickApply(now, s.TickDecide(now))
	}
	// 200 ticks: every wave in flight, the latency histogram on its buckets,
	// the per-interval accuracy series past the doubling the measured ticks
	// would otherwise cross.
	for i := 0; i < 200; i++ {
		tick()
	}
	if got, want := s.DirtyPages(), cfg.Cache.Nwb()*wavePages+4; got != want {
		t.Fatalf("steady state holds %d dirty pages, want %d", got, want)
	}
	if got := s.ftl.SIPListSize(); got != s.DirtyPages() {
		t.Fatalf("FTL holds %d SIP pages for %d dirty ones", got, s.DirtyPages())
	}
	if avg := testing.AllocsPerRun(50, tick); avg != 0 {
		t.Errorf("steady-state interval allocates %.2f times, want 0", avg)
	}
	if err := s.cache.CheckConsistency(); err != nil {
		t.Error(err)
	}
	if err := s.ftl.CheckConsistency(); err != nil {
		t.Error(err)
	}
}
