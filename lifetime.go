package jitgc

import (
	"errors"
	"fmt"
	"time"

	"jitgc/internal/ftl"
	"jitgc/internal/nand"
	"jitgc/internal/sim"
	"jitgc/internal/trace"
	"jitgc/internal/workload"
)

// LifetimeResult records how much host data a device served before wearing
// out under a BGC policy. Because every policy amplifies writes
// differently, the same NAND erase budget yields different host lifetimes —
// the "long lifetimes" half of the paper's title, measured directly.
type LifetimeResult struct {
	// Policy is the BGC policy name.
	Policy string
	// Workload is the benchmark name.
	Workload string
	// HostPagesWritten counts host page programs served before death.
	HostPagesWritten int64
	// HostBytesWritten is the same in bytes.
	HostBytesWritten int64
	// WAF is the cumulative write amplification at death.
	WAF float64
	// Erases and RetiredBlocks describe the wear state at death.
	Erases        int64
	RetiredBlocks int
	// Rounds is the 1-based round of the replayed stream the device died
	// in: the round whose request it served last.
	Rounds int
}

// String renders a one-line summary.
func (r LifetimeResult) String() string {
	return fmt.Sprintf("%s/%s: %.1f MB host writes before wear-out (WAF %.3f, %d erases, %d retired blocks)",
		r.Workload, r.Policy, float64(r.HostBytesWritten)/1e6, r.WAF, r.Erases, r.RetiredBlocks)
}

// maxWearOutRounds bounds how many rounds of the stream RunUntilWearOut
// replays before giving up on the device wearing out.
const maxWearOutRounds = 64

// RunUntilWearOut replays a benchmark's stream under a policy on a device
// with the given per-block erase budget until the device can no longer
// serve writes, and reports the host data written up to that point. One
// simulator replays rounds of the generator back to back, round k (from 0)
// seeded opt.Seed+k (think times are relative, so closed-loop rounds join
// directly), for at most maxWearOutRounds rounds. A set opt.HostProfile
// replaces the benchmark, whose name then only labels the run, as in Run.
func RunUntilWearOut(benchmark string, policy PolicySpec, enduranceLimit int64, opt Options) (LifetimeResult, error) {
	if enduranceLimit <= 0 {
		return LifetimeResult{}, fmt.Errorf("jitgc: endurance limit %d must be positive", enduranceLimit)
	}
	opt = opt.withDefaults()
	gen, err := opt.generator(benchmark)
	if err != nil {
		return LifetimeResult{}, err
	}
	cfg, ws := opt.simConfig()
	cfg.FTL.EnduranceLimit = enduranceLimit
	s, err := sim.New(cfg, policy.Factory())
	if err != nil {
		return LifetimeResult{}, err
	}
	src := &roundSource{gen: gen, params: workload.Params{Seed: opt.Seed, Ops: opt.Ops, WorkingSetPages: ws}}
	runErr := sim.Drive(s, src, cfg.Cache.FlusherPeriod, cfg.DrainCache)
	switch {
	case src.err != nil:
		return LifetimeResult{}, src.err
	case errors.Is(runErr, ftl.ErrNoFreeBlocks) || errors.Is(runErr, nand.ErrWornOut):
		// worn out: the result below
	case runErr != nil:
		return LifetimeResult{}, runErr
	default:
		return LifetimeResult{}, fmt.Errorf("jitgc: device survived %d rounds of %s under %s (raise ops or lower the endurance limit)",
			maxWearOutRounds, benchmark, policy.Kind)
	}
	rounds := src.round
	if src.next == 0 { // died before the first request of the round just generated
		rounds--
	}
	st := s.FTL().Stats()
	return LifetimeResult{
		Policy:           s.Policy().Name(),
		Workload:         benchmark,
		HostPagesWritten: st.HostPrograms,
		HostBytesWritten: st.HostPrograms * int64(s.FTL().PageSize()),
		WAF:              st.WAF(),
		Erases:           st.Erases,
		RetiredBlocks:    s.FTL().Device().RetiredBlocks(),
		Rounds:           rounds,
	}, nil
}

// roundSource is a closed-loop sim.Source over rounds of a generator's
// stream. It holds one round at a time and generates round k only once
// round k-1 is exhausted; a generation error ends the source and waits in
// err.
type roundSource struct {
	gen    workload.Generator
	params workload.Params // round k runs with Seed params.Seed+k
	round  int             // rounds generated so far
	reqs   []trace.Request
	next   int
	last   time.Duration // completion of the previous request
	err    error
}

func (s *roundSource) NextAt(sim.Device) (time.Duration, bool) {
	if s.next == len(s.reqs) && !s.load() {
		return 0, false
	}
	return s.last + s.reqs[s.next].Time, true
}

// load generates the next round, reporting whether it has a request to
// serve.
func (s *roundSource) load() bool {
	if s.err != nil || s.round == maxWearOutRounds {
		return false
	}
	p := s.params
	p.Seed += int64(s.round)
	s.round++
	s.next = 0
	if s.reqs, s.err = s.gen.Generate(p); s.err != nil {
		return false
	}
	for i, r := range s.reqs {
		if err := r.Validate(); err != nil {
			s.err = fmt.Errorf("round %d request %d: %w", s.round, i, err)
			return false
		}
	}
	return len(s.reqs) > 0
}

func (s *roundSource) Fire(t time.Duration, dev sim.Device) (err error) {
	r := s.reqs[s.next]
	r.Time = t
	s.next++
	s.last, err = dev.StepRequest(r)
	return err
}
