package core

import (
	"testing"
	"time"
)

// fakeView is a scriptable DeviceView.
type fakeView struct {
	free     int64
	bw, bgc  float64
	idleFrac float64
}

func (v fakeView) FreeBytes() int64        { return v.free }
func (v fakeView) WriteBandwidth() float64 { return v.bw }
func (v fakeView) GCBandwidth() float64    { return v.bgc }
func (v fakeView) IdleFraction() float64   { return v.idleFrac }

func TestFixedReserveReclaimsShortfall(t *testing.T) {
	p := FixedReserve{ReserveBytes: 100}
	d := p.OnInterval(0, fakeView{free: 30})
	if d.ReclaimBytes != 70 {
		t.Errorf("reclaim = %d, want 70", d.ReclaimBytes)
	}
	d = p.OnInterval(0, fakeView{free: 200})
	if d.ReclaimBytes != 0 {
		t.Errorf("reclaim above reserve = %d, want 0", d.ReclaimBytes)
	}
	if d.SIP.Reset || d.SIP.Add != nil || d.PredictedBytes != 0 {
		t.Error("fixed policy must not predict or forward SIP lists")
	}
}

func TestBaselineConstructors(t *testing.T) {
	const op = 1000
	lazy := NewLazyBGC(op)
	if lazy.ReserveBytes != 500 || lazy.Name() != "L-BGC" {
		t.Errorf("L-BGC = %+v", lazy)
	}
	agg := NewAggressiveBGC(op)
	if agg.ReserveBytes != 1500 || agg.Name() != "A-BGC" {
		t.Errorf("A-BGC = %+v", agg)
	}
	fixed := NewFixedBGC(op, 0.75)
	if fixed.ReserveBytes != 750 || fixed.Name() != "0.75OP" {
		t.Errorf("fixed = %+v", fixed)
	}
	if (FixedReserve{ReserveBytes: 42}).Name() != "fixed(42)" {
		t.Error("default fixed name")
	}
}

func TestNoBGCNeverReclaims(t *testing.T) {
	var p NoBGC
	d := p.OnInterval(time.Hour, fakeView{free: 0})
	if d.ReclaimBytes != 0 {
		t.Errorf("no-BGC reclaimed %d", d.ReclaimBytes)
	}
	if p.Name() != "no-BGC" {
		t.Error("name")
	}
}
