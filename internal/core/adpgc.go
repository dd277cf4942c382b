package core

import (
	"time"

	"jitgc/internal/predictor"
	"jitgc/internal/trace"
)

// ADPGC is the adaptive baseline of the paper's evaluation (§4.2): it
// changes the reserved capacity dynamically, but its future write demand
// estimation runs entirely inside the SSD. It therefore cannot distinguish
// buffered from direct writes — it applies JIT-GC's direct-write CDH
// predictor to the whole device write stream — and has no SIP information
// for victim selection.
type ADPGC struct {
	tracker *predictor.CDHTracker
	expire  time.Duration
}

// NewADPGC builds the ADP-GC baseline at the default CDH percentile. wb
// must match the simulator's write-back interval configuration.
func NewADPGC(wb predictor.WriteBack) (*ADPGC, error) {
	tr, err := JITOptions{}.newCDH(wb)
	if err != nil {
		return nil, err
	}
	return &ADPGC{tracker: tr, expire: wb.Expire}, nil
}

// Name implements Policy.
func (a *ADPGC) Name() string { return "ADP-GC" }

// Observe implements Policy: ADP-GC sees every write reaching the device —
// the only traffic visible from inside the SSD — and no discards.
func (a *ADPGC) Observe(kind trace.Kind, bytes int64) {
	if kind != trace.Trim {
		a.tracker.Observe(bytes)
	}
}

// OnInterval implements Policy. ADP-GC reserves the predicted demand lazily
// with the same scheduling rule as JIT-GC — the difference is purely in
// prediction quality (a device-only CDH spread uniformly over the horizon)
// and the missing SIP list.
func (a *ADPGC) OnInterval(_ time.Duration, view DeviceView) Decision {
	a.tracker.Tick()
	demand := a.tracker.Predict()
	return decide(forecast{demand: demand, predicted: demand.Total()},
		a.expire/time.Duration(len(demand)), view)
}
