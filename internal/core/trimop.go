package core

import (
	"time"

	"jitgc/internal/predictor"
	"jitgc/internal/trace"
)

// TrimOP is the adaptive over-provisioning policy for TRIM-rich hosts
// (Frankie et al.): host discards keep pages invalid without a compensating
// program, inflating the effective OP the collector enjoys, so a fixed
// aggressive reserve squanders lifetime on pre-reclaim the TRIM stream
// would have delivered for free. TrimOP resizes the effective reserve each
// interval from the observed TRIM rate: it tracks per-τ_expire TRIM volume
// in a CDH (the same §3.2.2 machinery JIT-GC uses for direct writes) and
// discounts the aggressive baseline reserve by the CDH-percentile TRIM
// credit, floored at the lazy reserve. On a host that never discards it
// behaves exactly like A-BGC; on a discard-heavy host it relaxes toward
// L-BGC, letting TRIM-created invalid pages stand in for reserved space.
type TrimOP struct {
	writes *predictor.CDHTracker // device write demand, for accuracy accounting
	trims  *predictor.CDHTracker // host TRIM volume per τ_expire window
	base   int64                 // aggressive reserve: 1.5 × C_OP
	floor  int64                 // lazy reserve: 0.5 × C_OP
}

// NewTrimOP builds the adaptive-OP policy. wb must match the simulator's
// write-back interval configuration; opBytes is the device's C_OP. Both
// trackers run at the default CDH percentile.
func NewTrimOP(wb predictor.WriteBack, opBytes int64) (*TrimOP, error) {
	writes, err := JITOptions{}.newCDH(wb)
	if err != nil {
		return nil, err
	}
	trims, err := JITOptions{}.newCDH(wb)
	if err != nil {
		return nil, err
	}
	return &TrimOP{
		writes: writes,
		trims:  trims,
		base:   opBytes + opBytes/2,
		floor:  opBytes / 2,
	}, nil
}

// Name implements Policy.
func (p *TrimOP) Name() string { return "TRIM-OP" }

// Observe implements Policy: host discards feed the TRIM credit, every
// device write the accuracy-scored write forecast.
func (p *TrimOP) Observe(kind trace.Kind, bytes int64) {
	if kind == trace.Trim {
		p.trims.Observe(bytes)
	} else {
		p.writes.Observe(bytes)
	}
}

// trimCredit returns the per-horizon TRIM volume to credit against the
// reserve. The CDH percentile quantizes to a bin's UPPER edge — the safe
// direction for a demand forecast, but the unsafe one for a credit (a host
// that never discards would be credited a whole bin). Taking the lower
// edge instead keeps the discount conservative: zero for an idle TRIM
// stream, never more than the observed volume for a busy one.
func (p *TrimOP) trimCredit() int64 {
	return max(p.trims.Reserve()-cdhBinBytes, 0)
}

// EffectiveReserve returns the reserve the policy currently targets:
// the aggressive baseline discounted by the CDH-percentile TRIM credit,
// floored at the lazy reserve.
func (p *TrimOP) EffectiveReserve() int64 {
	return max(p.base-p.trimCredit(), p.floor)
}

// OnInterval implements Policy: reclaim the shortfall against the
// TRIM-adapted reserve, exactly as a FixedReserve policy whose C_resv is
// re-derived every interval from the discard stream.
func (p *TrimOP) OnInterval(_ time.Duration, view DeviceView) Decision {
	p.writes.Tick()
	p.trims.Tick()
	return decide(forecast{reserve: p.EffectiveReserve(), predicted: p.writes.Predict().Total()}, 0, view)
}
