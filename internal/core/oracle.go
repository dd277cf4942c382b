package core

import (
	"fmt"
	"time"

	"jitgc/internal/predictor"
	"jitgc/internal/trace"
)

// Oracle replays a recorded future, after the ideal BGC invocation policy
// the paper's §2 motivates: "one that can dynamically change C_resv so
// that only an exact amount of future writes can be reserved in advance".
// It is fed the per-interval device write volumes of a previous run of the
// same workload (the evaluation grid records them under A-BGC) and schedules
// them with JIT-GC's rule. Its forecast is exact only while its own
// closed-loop timing follows the recording's, so it bounds nothing: where
// the two drift apart it can lose to the practical predictors it is set
// beside (EXPERIMENTS.md).
type Oracle struct {
	future []int64 // bytes actually written per interval, known in advance
	wb     predictor.WriteBack
	cursor int
}

// NewOracle builds the ideal policy from a recorded per-interval write
// series (e.g. sim.Simulator.IntervalActuals from a prior pass).
func NewOracle(future []int64, wb predictor.WriteBack) (*Oracle, error) {
	if err := wb.Validate(); err != nil {
		return nil, err
	}
	if len(future) == 0 {
		return nil, fmt.Errorf("core: oracle needs a recorded future")
	}
	cp := make([]int64, len(future))
	copy(cp, future)
	return &Oracle{future: cp, wb: wb}, nil
}

// Name implements Policy.
func (o *Oracle) Name() string { return "Oracle" }

// Observe implements Policy: the oracle already knows the future.
func (o *Oracle) Observe(trace.Kind, int64) {}

// OnInterval implements Policy: the demand sequence is simply the recorded
// future, scheduled with the same just-in-time rule as JIT-GC.
func (o *Oracle) OnInterval(_ time.Duration, view DeviceView) Decision {
	f := forecast{demand: make([]int64, o.wb.Nwb())}
	for i := range f.demand {
		// The forecast at the start of interval k covers intervals
		// k+1 … k+Nwb of the recording.
		if idx := o.cursor + 1 + i; idx < len(o.future) {
			f.demand[i] = o.future[idx]
			f.predicted += o.future[idx]
		}
	}
	o.cursor++
	return decide(f, o.wb.Period, view)
}
