package main

import (
	"time"

	"jitgc/internal/metrics"
)

// runStepped is the harness's own copy of sim.Simulator's closed-loop
// arrival-versus-tick loop, driving the simulator through its public
// stepping API with a span around each call, so that a run's host time can
// be attributed to request service (FTL and NAND, or the page cache), the
// flusher, the policy's decision (predictors) and its installation without
// tracing inside the program. It must yield the Results RunClosedLoop
// yields; the traced pass checks that it does. The second result is the
// number of write-back ticks taken.
func runStepped(inst *instance, rec *spanRecorder) (metrics.Results, int, error) {
	s, reqs := inst.sim, inst.reqs
	period := inst.cfg.Cache.FlusherPeriod
	stepID, flushID := rec.id("sim.step_request"), rec.id("sim.tick_flush")
	decideID, applyID := rec.id("core.tick_decide"), rec.id("sim.tick_apply")

	rec.reserve(len(reqs) + len(reqs)/64)
	loop := rec.begin(rec.id("bench.stepped_loop"))
	defer rec.end(loop)
	nextTick := period
	var last time.Duration // completion time of the previous request
	ticks, ri := 0, 0
	for {
		var arrival time.Duration
		if ri < len(reqs) {
			arrival = last + reqs[ri].Time // Time is a think time
		}
		switch {
		case ri < len(reqs) && arrival <= nextTick:
			r := reqs[ri]
			r.Time = arrival
			sp := rec.begin(stepID)
			done, err := s.StepRequest(r)
			rec.end(sp)
			if err != nil {
				return metrics.Results{}, ticks, err
			}
			last = done
			ri++
		case ri < len(reqs) || (inst.cfg.DrainCache && s.DirtyPages() > 0):
			sp := rec.begin(flushID)
			err := s.TickFlush(nextTick)
			rec.end(sp)
			if err != nil {
				return metrics.Results{}, ticks, err
			}
			sp = rec.begin(decideID)
			dec := s.TickDecide(nextTick)
			rec.end(sp)
			sp = rec.begin(applyID)
			s.TickApply(nextTick, dec)
			rec.end(sp)
			nextTick += period
			ticks++
		default:
			sp := rec.begin(rec.id("sim.results"))
			res := s.Results()
			rec.end(sp)
			return res, ticks, nil
		}
	}
}
