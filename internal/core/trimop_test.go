package core

import (
	"testing"
	"time"

	"jitgc/internal/predictor"
)

func testWB() predictor.WriteBack {
	return predictor.WriteBack{Period: time.Second, Expire: 4 * time.Second}
}

func newTestTrimOP(t *testing.T, opBytes int64) *TrimOP {
	t.Helper()
	p, err := NewTrimOP(testWB(), opBytes, JITOptions{})
	if err != nil {
		t.Fatalf("NewTrimOP: %v", err)
	}
	return p
}

func TestTrimOPRejectsBadWriteBack(t *testing.T) {
	if _, err := NewTrimOP(predictor.WriteBack{}, 1000, JITOptions{}); err == nil {
		t.Error("zero write-back config accepted")
	}
}

// TestTrimOPDefaultsToAggressive pins the no-discard end of the policy: a
// host that never TRIMs gets exactly the A-BGC reserve (1.5 × C_OP).
func TestTrimOPDefaultsToAggressive(t *testing.T) {
	const op = 1 << 20
	p := newTestTrimOP(t, op)
	agg := NewAggressiveBGC(op)
	view := fakeView{free: op / 4}
	for i := 0; i < 12; i++ {
		got := p.OnInterval(0, view)
		want := agg.OnInterval(0, view)
		if got.ReclaimBytes != want.ReclaimBytes {
			t.Fatalf("interval %d: reclaim %d, A-BGC reclaims %d", i, got.ReclaimBytes, want.ReclaimBytes)
		}
	}
	if p.EffectiveReserve() != op+op/2 {
		t.Errorf("reserve without TRIMs = %d, want %d", p.EffectiveReserve(), op+op/2)
	}
}

// TestTrimOPRelaxesTowardLazy pins the discard-heavy end: sustained TRIM
// volume at or above C_OP per horizon drives the reserve down to the L-BGC
// floor, and never below it.
func TestTrimOPRelaxesTowardLazy(t *testing.T) {
	const op = 1 << 20
	p := newTestTrimOP(t, op)
	nwb := testWB().Nwb()
	// Several closed windows, each discarding 2 × C_OP.
	for w := 0; w < 6; w++ {
		for i := 0; i < nwb; i++ {
			p.ObserveTrim(2 * op / int64(nwb))
			p.OnInterval(0, fakeView{free: 2 * op})
		}
	}
	if got, want := p.EffectiveReserve(), int64(op/2); got != want {
		t.Errorf("reserve under heavy TRIM = %d, want lazy floor %d", got, want)
	}
	lazy := NewLazyBGC(op)
	view := fakeView{free: op / 8}
	if got, want := p.OnInterval(0, view).ReclaimBytes, lazy.OnInterval(0, view).ReclaimBytes; got != want {
		t.Errorf("reclaim under heavy TRIM = %d, L-BGC reclaims %d", got, want)
	}
}

// TestTrimOPScalesWithTrimRate checks the interpolation: the reserve is
// the aggressive baseline minus the per-horizon TRIM credit.
func TestTrimOPScalesWithTrimRate(t *testing.T) {
	const op = 16 << 20
	p := newTestTrimOP(t, op)
	nwb := testWB().Nwb()
	const perWindow = op / 2 // TRIM credit of half C_OP per horizon
	for w := 0; w < 6; w++ {
		for i := 0; i < nwb; i++ {
			p.ObserveTrim(perWindow / int64(nwb))
			p.OnInterval(0, fakeView{free: 2 * op})
		}
	}
	got := p.EffectiveReserve()
	want := int64(op + op/2 - perWindow) // 1.5·C_OP − credit = C_OP
	// The CDH quantizes the credit to a histogram bin; allow one bin
	// (the default 1 MiB width) of slack.
	slack := int64(1 << 20)
	if got < want-slack || got > want+slack {
		t.Errorf("reserve = %d, want %d ± %d", got, want, slack)
	}
}

// TestTrimOPPredictsFromDeviceWrites checks the accuracy-accounting hook:
// PredictedBytes tracks the device write stream, not the TRIM stream.
func TestTrimOPPredictsFromDeviceWrites(t *testing.T) {
	const op = 1 << 20
	p := newTestTrimOP(t, op)
	nwb := testWB().Nwb()
	for w := 0; w < 4; w++ {
		for i := 0; i < nwb; i++ {
			p.ObserveDeviceWrite(1 << 16)
			p.OnInterval(0, fakeView{free: 2 * op})
		}
	}
	d := p.OnInterval(0, fakeView{free: 2 * op})
	if d.PredictedBytes == 0 {
		t.Error("no write demand predicted from observed device writes")
	}
	if d.SIP.Reset || d.SIP.Add != nil || d.SIP.Drop != nil {
		t.Error("TRIM-OP has no host interface and must not install SIP lists")
	}
}
