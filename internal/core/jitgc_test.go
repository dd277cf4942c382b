package core

import (
	"testing"
	"testing/quick"
	"time"

	"jitgc/internal/pagecache"
	"jitgc/internal/predictor"
)

const mb = 1e6

// paperDemand builds the combined demand of the paper's Fig. 6 examples:
// Ddir = 5 MB per interval plus the given buffered sequence.
func paperDemand(buf ...int64) []int64 {
	out := make([]int64, len(buf))
	for i := range buf {
		out[i] = buf[i]*mb + 5*mb
	}
	return out
}

func TestScheduleFig6NoBGC(t *testing.T) {
	// Fig 6(a): Dbuf(10) = (0,0,0,0,20,40), Cfree = 50 MB → T_idle > T_gc,
	// no BGC.
	demand := paperDemand(0, 0, 0, 0, 20, 40)
	got := Schedule(demand, 50*mb, 5*time.Second, 40*mb, 10*mb, 1)
	if got != 0 {
		t.Errorf("D_reclaim = %d, want 0", got)
	}
}

func TestScheduleFig6Reclaims12Point5MB(t *testing.T) {
	// Fig 6(b): Dbuf(20) = (0,0,20,40,0,200) → C_req = 290 MB,
	// T_idle = 22.75 s < T_gc = 24 s → D_reclaim = 12.5 MB.
	demand := paperDemand(0, 0, 20, 40, 0, 200)
	got := Schedule(demand, 50*mb, 5*time.Second, 40*mb, 10*mb, 1)
	if got != int64(12.5*mb) {
		t.Errorf("D_reclaim = %d, want 12.5 MB", got)
	}
}

func TestScheduleNoDeficitNoReclaim(t *testing.T) {
	demand := []int64{10 * mb, 10 * mb}
	if got := Schedule(demand, 100*mb, 5*time.Second, 40*mb, 10*mb, 1); got != 0 {
		t.Errorf("reclaim with C_free > C_req = %d", got)
	}
}

func TestScheduleNextTickDeadlineIsHard(t *testing.T) {
	// Demand due at the next tick must be covered now even though the
	// aggregate feasibility math would defer.
	demand := []int64{30 * mb, 0, 0, 0, 0, 0}
	got := Schedule(demand, 10*mb, 5*time.Second, 40*mb, 10*mb, 1)
	if got != 20*mb {
		t.Errorf("D_reclaim = %d, want the full 20 MB next-tick shortfall", got)
	}
}

func TestScheduleIdleFractionTightensDeadlines(t *testing.T) {
	// A wave three intervals out that full idle could absorb lazily…
	demand := []int64{0, 0, 0, 100 * mb, 0, 0}
	lazy := Schedule(demand, 10*mb, 5*time.Second, 40*mb, 10*mb, 1)
	// …must trigger early reclaim when the device has little idle.
	busy := Schedule(demand, 10*mb, 5*time.Second, 40*mb, 10*mb, 0.2)
	if busy <= lazy {
		t.Errorf("busy-device reclaim %d not greater than idle-device %d", busy, lazy)
	}
}

func TestScheduleCapsAtDeficit(t *testing.T) {
	demand := []int64{0, 1000 * mb}
	got := Schedule(demand, 100*mb, 5*time.Second, 40*mb, 10*mb, 0)
	if got != 900*mb {
		t.Errorf("reclaim = %d, want capped at deficit 900 MB", got)
	}
}

func TestScheduleWithoutBandwidthReclaimsDeficit(t *testing.T) {
	demand := []int64{0, 50 * mb}
	if got := Schedule(demand, 20*mb, 5*time.Second, 0, 0, 1); got != 30*mb {
		t.Errorf("reclaim = %d, want 30 MB", got)
	}
}

// Property: Schedule never returns a negative value or more than the
// deficit, for any inputs.
func TestScheduleBoundsProperty(t *testing.T) {
	f := func(raw []uint32, freeRaw uint32, idleRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		demand := make([]int64, len(raw)%8+1)
		var creq int64
		for i := range demand {
			demand[i] = int64(raw[i%len(raw)] % 1000000)
			creq += demand[i]
		}
		cfree := int64(freeRaw % 2000000)
		idle := float64(idleRaw%100) / 100
		got := Schedule(demand, cfree, 5*time.Second, 40*mb, 10*mb, idle)
		if got < 0 {
			return false
		}
		deficit := creq - cfree
		if deficit < 0 {
			deficit = 0
		}
		return got <= deficit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newJIT(t *testing.T) (*JITGC, *pagecache.Cache) {
	t.Helper()
	cfg := pagecache.Config{
		PageSize:      4096,
		CapacityPages: 1 << 16,
		FlusherPeriod: 5 * time.Second,
		Expire:        30 * time.Second,
		FlushRatio:    0.9,
	}
	cache, err := pagecache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJITGC(cache, JITOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return j, cache
}

func TestJITGCReservesForFlushWave(t *testing.T) {
	j, cache := newJIT(t)
	// 2000 dirty pages written at t=1s flush at t=35s. At t=30s they are
	// next-interval demand; the manager must request the shortfall.
	if _, err := cache.Write(time.Second, 0, 2000); err != nil {
		t.Fatal(err)
	}
	var dec Decision
	for at := 5 * time.Second; at <= 30*time.Second; at += 5 * time.Second {
		cache.Flush(at)
		dec = j.OnInterval(at, fakeView{free: mb, bw: 8 * mb, bgc: 2 * mb, idleFrac: 1})
		// The 2000 dirty pages are installed once, by the first decision;
		// nothing changes in the cache afterwards, so nothing is sent.
		wantAdd := 0
		if at == 5*time.Second {
			wantAdd = 2000
		}
		if dec.SIP.Reset != (wantAdd > 0) || len(dec.SIP.Add) != wantAdd || len(dec.SIP.Drop) != 0 {
			t.Errorf("SIP change at %v: reset=%v add=%d drop=%d", at, dec.SIP.Reset, len(dec.SIP.Add), len(dec.SIP.Drop))
		}
	}
	want := int64(2000*4096) - mb
	if dec.ReclaimBytes < want {
		t.Errorf("reclaim at t=30s = %d, want ≥ %d (the flush wave shortfall)", dec.ReclaimBytes, want)
	}
	if dec.PredictedBytes < int64(2000*4096) {
		t.Errorf("predicted = %d, want ≥ the dirty volume", dec.PredictedBytes)
	}
}

func TestJITGCNoDemandNoReclaim(t *testing.T) {
	j, _ := newJIT(t)
	dec := j.OnInterval(5*time.Second, fakeView{free: 100 * mb, bw: 8 * mb, bgc: 2 * mb, idleFrac: 1})
	if dec.ReclaimBytes != 0 {
		t.Errorf("reclaim with empty cache = %d", dec.ReclaimBytes)
	}
	if !dec.SIP.Reset || len(dec.SIP.Add) != 0 {
		t.Errorf("SIP change %+v, want the empty set installed", dec.SIP)
	}
}

func TestJITGCDisableSIP(t *testing.T) {
	j, cache := newJIT(t)
	j.DisableSIP = true
	if _, err := cache.Write(time.Second, 0, 10); err != nil {
		t.Fatal(err)
	}
	dec := j.OnInterval(5*time.Second, fakeView{free: 100 * mb, bw: 8 * mb, bgc: 2 * mb, idleFrac: 1})
	if dec.SIP.Reset || dec.SIP.Add != nil {
		t.Error("SIP forwarded despite DisableSIP")
	}
}

func TestJITGCTracksDirectWrites(t *testing.T) {
	j, _ := newJIT(t)
	view := fakeView{free: 0, bw: 8 * mb, bgc: 2 * mb, idleFrac: 1}
	// Feed a steady 12 MB per window of direct traffic for several windows.
	for w := 0; w < 8; w++ {
		for i := 0; i < 6; i++ {
			j.ObserveDirect(2 * mb)
			j.OnInterval(time.Duration(w*6+i+1)*5*time.Second, view)
		}
	}
	p := j.Predict(0)
	if p.Direct.Total() < 10*mb {
		t.Errorf("direct demand = %d, want ≈ the 12 MB window volume", p.Direct.Total())
	}
	if j.Name() != "JIT-GC" {
		t.Error("name")
	}
}

func TestADPGCPredictsFromDeviceTraffic(t *testing.T) {
	wb := predictor.WriteBack{Period: 5 * time.Second, Expire: 30 * time.Second}
	a, err := NewADPGC(wb, JITOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "ADP-GC" {
		t.Error("name")
	}
	view := fakeView{free: 0, bw: 8 * mb, bgc: 2 * mb, idleFrac: 1}
	var dec Decision
	for w := 0; w < 8; w++ {
		for i := 0; i < 6; i++ {
			a.ObserveDeviceWrite(2 * mb)
			dec = a.OnInterval(time.Duration(w*6+i+1)*5*time.Second, view)
		}
	}
	if dec.PredictedBytes <= 0 {
		t.Error("ADP-GC predicts nothing from steady traffic")
	}
	if dec.ReclaimBytes <= 0 {
		t.Error("ADP-GC with zero free space reclaims nothing")
	}
	if dec.SIP.Reset || dec.SIP.Add != nil || dec.SIP.Drop != nil {
		t.Error("ADP-GC must not have SIP information")
	}
}

func TestJITOptionsDefaults(t *testing.T) {
	var o JITOptions
	o.setDefaults()
	if o.Percentile != predictor.DefaultPercentile || o.CDHBins == 0 || o.CDHBinWidth == 0 || o.RecentWindows == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
}
