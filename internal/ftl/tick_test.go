package ftl

import (
	"slices"
	"testing"
	"time"

	"jitgc/internal/core"
	"jitgc/internal/pagecache"
)

// tickView is a fixed DeviceView short of free space, so that JIT-GC does
// its full scheduling computation every tick.
type tickView struct{}

func (tickView) FreeBytes() int64        { return 4 << 20 }
func (tickView) WriteBandwidth() float64 { return 8 << 20 }
func (tickView) GCBandwidth() float64    { return 2 << 20 }
func (tickView) IdleFraction() float64   { return 0.5 }

// tickDirtyPages is the dirty-set size every tick of newWriteBackTick
// scans: six waves of buffered writes, one per write-back interval of the
// horizon, and a few pages rewritten every interval — together exactly the
// simulator's default τ_flush.
const (
	tickWavePages  = 2730
	tickHotPages   = 4
	tickDirtyPages = 6*tickWavePages + tickHotPages // 16,384
)

// newWriteBackTick returns one steady-state write-back boundary as the
// simulator runs it at the default cache configuration: the host dirties
// the wave of pages the previous boundary flushed and rewrites its hot
// pages, then the flusher pops the wave that has expired, JIT-GC predicts
// from the dirty set, and the FTL applies the SIP change — one wave out, one
// wave in. Each wave is
// written highest LPN first, so every flush has a run of equal timestamps
// to put back into LPN order.
func newWriteBackTick(tb testing.TB) (tick func()) {
	tb.Helper()
	ccfg := pagecache.DefaultConfig()
	ccfg.CapacityPages = 1 << 16
	ccfg.FlushRatio = 0.25
	cache, err := pagecache.New(ccfg)
	if err != nil {
		tb.Fatal(err)
	}
	jit, err := core.NewJITGC(cache, core.JITOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	f := benchSteadyFTL(tb, 512, SIPGreedy)

	var now time.Duration
	var wave []int64 // flushed at the last boundary, written before the next
	tick = func() {
		mid := now + ccfg.FlusherPeriod/2
		for i := len(wave) - 1; i >= 0; i-- {
			if _, err := cache.Write(mid, wave[i], 1); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := cache.Write(mid, 7*tickWavePages, tickHotPages); err != nil {
			tb.Fatal(err)
		}
		now += ccfg.FlusherPeriod
		wave = append(wave[:0], cache.Flush(now)...)
		dec := jit.OnInterval(now, tickView{})
		f.UpdateSIP(dec.SIP.Reset, dec.SIP.Add, dec.SIP.Drop)
	}
	// A page written mid-interval is found dirty by six scans and flushed at
	// the seventh boundary, so seven waves keep six in the cache. Start one
	// per tick; the seventh tick flushes the first, and from there each
	// tick rewrites what the last one flushed.
	for w := int64(0); w < 7; w++ {
		wave = wave[:0]
		for lpn := w * tickWavePages; lpn < (w+1)*tickWavePages; lpn++ {
			wave = append(wave, lpn)
		}
		tick()
	}
	for i := 0; i < 14; i++ { // let every buffer reach its steady size
		tick()
	}
	if n := cache.DirtyPageCount(); n != tickDirtyPages {
		tb.Fatalf("steady state holds %d dirty pages, want %d", n, tickDirtyPages)
	}
	if n := f.SIPListSize(); n != tickDirtyPages {
		tb.Fatalf("SIP list holds %d pages, want %d", n, tickDirtyPages)
	}
	return tick
}

// TestWriteBackTickZeroAlloc pins the host side of the write-back boundary
// next to the write path: in steady state the flusher, the buffered
// predictor's dirty scan, JIT-GC's decision and the SIP update allocate
// nothing, at the dirty-set size the default simulator holds.
func TestWriteBackTickZeroAlloc(t *testing.T) {
	tick := newWriteBackTick(t)
	if avg := testing.AllocsPerRun(14, tick); avg != 0 {
		t.Errorf("steady-state write-back tick allocates %.2f times, want 0", avg)
	}
}

// TestIdleIntervalSendsNoSIPChange: across an interval in which the cache
// saw no write and the flusher found nothing expired, the prediction still
// moves — every page is one interval closer to its flush — but the FTL is
// handed an empty change and keeps the set it has.
func TestIdleIntervalSendsNoSIPChange(t *testing.T) {
	cache, err := pagecache.New(pagecache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	jit, err := core.NewJITGC(cache, core.JITOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := newSmall(t)
	if _, err := cache.Write(time.Second, 0, 100); err != nil {
		t.Fatal(err)
	}
	period := cache.Config().FlusherPeriod
	cache.Flush(period)
	p := jit.Predict(period)
	f.UpdateSIP(p.SIP.Reset, p.SIP.Add, p.SIP.Drop)
	if !p.SIP.Reset || f.SIPListSize() != 100 {
		t.Fatalf("first prediction: reset %v, FTL holds %d SIP pages; want a reset installing 100", p.SIP.Reset, f.SIPListSize())
	}
	before := p.Buffered.Clone()

	if flushed := cache.Flush(2 * period); len(flushed) != 0 {
		t.Fatalf("setup: %d pages expired in the idle interval", len(flushed))
	}
	p = jit.Predict(2 * period)
	if p.SIP.Reset || len(p.SIP.Add)+len(p.SIP.Drop) != 0 {
		t.Errorf("idle interval: SIP change %+v, want none", p.SIP)
	}
	f.UpdateSIP(p.SIP.Reset, p.SIP.Add, p.SIP.Drop)
	if f.SIPListSize() != 100 {
		t.Errorf("FTL holds %d SIP pages after the empty change, want 100", f.SIPListSize())
	}
	if before.Total() == 0 || !slices.Equal(p.Buffered[:len(before)-1], before[1:]) || p.Buffered[len(before)-1] != 0 {
		t.Errorf("demand %v did not shift one interval from %v", p.Buffered, before)
	}
}

// BenchmarkWriteBackTick measures that boundary. ns/op is one tick;
// ns/dirty-page divides it by the pages the tick scans.
func BenchmarkWriteBackTick(b *testing.B) {
	tick := newWriteBackTick(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tickDirtyPages, "ns/dirty-page")
}
