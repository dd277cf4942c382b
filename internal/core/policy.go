// Package core implements the paper's primary contribution: the JIT-GC
// manager that schedules background garbage collection just in time for
// predicted future write demand (§3.3), together with the baseline BGC
// invocation policies it is evaluated against — fixed-reserve lazy (L-BGC)
// and aggressive (A-BGC) policies and the adaptive, device-only ADP-GC.
package core

import (
	"fmt"
	"time"

	"jitgc/internal/predictor"
)

// DeviceView is the policy-facing view of the SSD at a write-back interval
// boundary: the information the paper's extended host interface exposes.
type DeviceView interface {
	// FreeBytes returns C_free: bytes writable before foreground GC.
	FreeBytes() int64
	// WriteBandwidth returns Bw, the host write bandwidth in bytes/second.
	WriteBandwidth() float64
	// GCBandwidth returns Bgc, the GC reclaim bandwidth in bytes/second.
	GCBandwidth() float64
	// IdleFraction returns the recent share of wall time the device spent
	// idle (available for background GC), in [0,1]. A paper-idealized
	// device, idle whenever not serving predicted writes, reports 1.
	IdleFraction() float64
}

// Decision is a policy's output for one write-back interval.
type Decision struct {
	// ReclaimBytes is how much free space background GC should reclaim
	// during the coming interval (0 = do not invoke BGC). The paper's
	// D_reclaim.
	ReclaimBytes int64
	// PredictedBytes is the policy's forecast of host writes over the next
	// τ_expire horizon, used for Table 2 accuracy accounting (0 for
	// non-predictive policies).
	PredictedBytes int64
	// SIP is the change to apply to the soon-to-be-invalidated page set in
	// the FTL's victim selector; the zero value, which is all a policy
	// without SIP support returns, leaves the set as it is.
	SIP predictor.SIPChange
}

// Policy decides, at each write-back interval boundary, whether and how
// much background GC to invoke.
type Policy interface {
	// Name identifies the policy in reports ("L-BGC", "JIT-GC", …).
	Name() string
	// OnInterval runs at the start of each write-back interval.
	OnInterval(now time.Duration, view DeviceView) Decision
}

// FixedReserve is the conventional BGC invocation heuristic: keep a fixed
// reserved capacity C_resv of free space, reclaiming the shortfall in
// background whenever C_free drops below it. Small C_resv is the paper's
// lazy policy; large C_resv the aggressive one (§2).
type FixedReserve struct {
	// ReserveBytes is C_resv.
	ReserveBytes int64
	// PolicyName overrides the default name ("fixed(<bytes>)").
	PolicyName string
}

// Name implements Policy.
func (p FixedReserve) Name() string {
	if p.PolicyName != "" {
		return p.PolicyName
	}
	return fmt.Sprintf("fixed(%d)", p.ReserveBytes)
}

// OnInterval implements Policy.
func (p FixedReserve) OnInterval(_ time.Duration, view DeviceView) Decision {
	short := p.ReserveBytes - view.FreeBytes()
	if short < 0 {
		short = 0
	}
	return Decision{ReclaimBytes: short}
}

// NewLazyBGC returns the paper's L-BGC baseline: C_resv = 0.5 × C_OP.
func NewLazyBGC(opBytes int64) FixedReserve {
	return FixedReserve{ReserveBytes: opBytes / 2, PolicyName: "L-BGC"}
}

// NewAggressiveBGC returns the paper's A-BGC baseline: C_resv = 1.5 × C_OP.
func NewAggressiveBGC(opBytes int64) FixedReserve {
	return FixedReserve{ReserveBytes: opBytes + opBytes/2, PolicyName: "A-BGC"}
}

// NewFixedBGC returns a fixed-reserve policy with C_resv = factor × C_OP,
// the knob swept in the paper's Fig. 2.
func NewFixedBGC(opBytes int64, factor float64) FixedReserve {
	return FixedReserve{
		ReserveBytes: int64(factor * float64(opBytes)),
		PolicyName:   fmt.Sprintf("%.2fOP", factor),
	}
}

// NoBGC never invokes background GC: every collection is foreground. It is
// not in the paper but serves as a worst-case performance anchor in tests.
type NoBGC struct{}

// Name implements Policy.
func (NoBGC) Name() string { return "no-BGC" }

// OnInterval implements Policy.
func (NoBGC) OnInterval(time.Duration, DeviceView) Decision { return Decision{} }
