package core

import (
	"testing"
	"time"

	"jitgc/internal/ftl"
	"jitgc/internal/nand"
	"jitgc/internal/predictor"
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

// TestLazyAggressiveAreSweepEnds: L-BGC and A-BGC reserve exactly what the
// Fig. 2 sweep reserves at 0.5× and 1.5× C_OP, so the paper grid reads
// them off the sweep's end columns. Checked at the C_OP of every scale
// preset under the default OP ratio, and at odd byte counts where the
// integer halving and the float product could round apart.
func TestLazyAggressiveAreSweepEnds(t *testing.T) {
	ops := []int64{0, 1, 3, 4095, 4097, 1<<20 + 1, 999_999_999, 1<<40 + 7}
	opRatio := ftl.DefaultConfig().OPRatio
	for _, p := range nand.ScalePresets() {
		total := p.Geo.TotalPages()
		ops = append(ops, (total-ftl.UserPagesFor(total, opRatio))*int64(p.Geo.PageSize))
	}
	for _, op := range ops {
		if l, f := NewLazyBGC(op).ReserveBytes, NewFixedBGC(op, 0.5).ReserveBytes; l != f {
			t.Errorf("C_OP=%d: L-BGC reserves %d, Fixed(0.5) %d", op, l, f)
		}
		if a, f := NewAggressiveBGC(op).ReserveBytes, NewFixedBGC(op, 1.5).ReserveBytes; a != f {
			t.Errorf("C_OP=%d: A-BGC reserves %d, Fixed(1.5) %d", op, a, f)
		}
	}
}

func TestNoBGCNeverReclaims(t *testing.T) {
	p := NewNoBGC()
	d := p.OnInterval(time.Hour, fakeView{free: 0})
	if d.ReclaimBytes != 0 {
		t.Errorf("no-BGC reclaimed %d", d.ReclaimBytes)
	}
	if p.Name() != "no-BGC" {
		t.Error("name")
	}
}

// TestDecideTakesTheLargerClaim: decide reclaims what Schedule asks for the
// demand or the shortfall against the reserve, whichever is larger, and
// reports the forecast's PredictedBytes and SIP change as they are.
func TestDecideTakesTheLargerClaim(t *testing.T) {
	view := fakeView{free: 50 * mb, bw: 40 * mb, bgc: 10 * mb, idleFrac: 1}
	demand := paperDemand(0, 0, 20, 40, 0, 200) // Fig. 6(b): Schedule asks 12.5 MB
	for _, tc := range []struct{ reserve, want int64 }{
		{0, 12.5 * mb},
		{55 * mb, 12.5 * mb}, // 5 MB short of the reserve: Schedule's claim is larger
		{70 * mb, 20 * mb},   // 20 MB short: the reserve's claim is larger
	} {
		f := forecast{demand: demand, reserve: tc.reserve, predicted: 7, sip: predictor.SIPChange{Reset: true}}
		d := decide(f, 5*time.Second, view)
		if d.ReclaimBytes != tc.want || d.PredictedBytes != 7 || !d.SIP.Reset {
			t.Errorf("reserve %d: decision %+v, want reclaim %d", tc.reserve, d, tc.want)
		}
	}
	if d := decide(forecast{reserve: 10 * mb}, 0, view); d.ReclaimBytes != 0 {
		t.Errorf("reserve met without demand: reclaim %d, want 0", d.ReclaimBytes)
	}
}
