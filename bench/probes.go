package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"jitgc"
	"jitgc/internal/core"
	"jitgc/internal/ftl"
	"jitgc/internal/histogram"
	"jitgc/internal/metrics"
	"jitgc/internal/nand"
	"jitgc/internal/pagecache"
	"jitgc/internal/predictor"
	"jitgc/internal/sim"
	"jitgc/internal/telemetry"
	"jitgc/internal/telemetry/binlog"
	"jitgc/internal/trace"
	wl "jitgc/internal/workload"
)

// A probe drives one layer alone through its public functions with a seeded
// op stream and returns host nanoseconds per operation, one entry per metric
// it measures. div shrinks the op counts (the tests' quick mode).
type probe func(rng *rand.Rand, div int) (map[string]float64, error)

// probeRepeats is how often each probe runs; its metrics are medians.
const probeRepeats = 5

// probeDirtyPages is the dirty-set size the cache, predictor and policy
// probes are taken at.
const probeDirtyPages = 20000

// probeSink receives the results of timed calls so that the compiler cannot
// remove them.
var probeSink float64

// per returns nanoseconds per operation since t0.
func per(t0 time.Time, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// runProbes runs every probe probeRepeats times and returns the median of
// each metric, plus the exact FTL accuracy figures.
func runProbes(seed int64, div int) (map[string]float64, error) {
	probes := []probe{probeNAND, probeFTL, probePageCache, probePolicy,
		probeHistograms, probeTelemetry, probeTrace}
	samples := map[string][]float64{}
	for _, p := range probes {
		for i := 0; i < probeRepeats; i++ {
			m, err := p(rand.New(rand.NewSource(seed)), div)
			if err != nil {
				return nil, err
			}
			for k, v := range m {
				samples[k] = append(samples[k], v)
			}
		}
	}
	out := map[string]float64{}
	for k, v := range samples {
		out[k] = median(v)
	}
	acc, err := probeFTLAccuracy(seed)
	if err != nil {
		return nil, err
	}
	for k, v := range acc {
		out[k] = v
	}
	return out, nil
}

// probeNAND times the bare array: program every page, read pages at random,
// erase every block, for a few program/erase cycles.
func probeNAND(rng *rand.Rand, div int) (map[string]float64, error) {
	geo := nand.DefaultGeometry()
	arr, err := nand.NewBareArray(geo, nand.DefaultTimingMLC())
	if err != nil {
		return nil, err
	}
	cycles := max(1, 4/div)
	blocks, ppb := geo.TotalBlocks(), geo.PagesPerBlock
	var prog, read, erase time.Duration
	for c := 0; c < cycles; c++ {
		t0 := time.Now()
		for b := 0; b < blocks; b++ {
			for p := 0; p < ppb; p++ {
				if _, err := arr.ProgramPage(nand.PageAddr{Block: b, Page: p}, 0); err != nil {
					return nil, err
				}
			}
		}
		prog += time.Since(t0)
		t0 = time.Now()
		for i := 0; i < blocks*ppb; i++ {
			if _, _, err := arr.ReadPage(nand.PageAddr{Block: rng.Intn(blocks), Page: rng.Intn(ppb)}); err != nil {
				return nil, err
			}
		}
		read += time.Since(t0)
		t0 = time.Now()
		for b := 0; b < blocks; b++ {
			if _, err := arr.EraseBlock(b); err != nil {
				return nil, err
			}
		}
		erase += time.Since(t0)
	}
	pages := float64(cycles * blocks * ppb)
	return map[string]float64{
		"nand.program_ns_per_page": float64(prog.Nanoseconds()) / pages,
		"nand.read_ns_per_page":    float64(read.Nanoseconds()) / pages,
		"nand.erase_ns_per_block":  float64(erase.Nanoseconds()) / float64(cycles*blocks),
	}, nil
}

// probeFTL times the FTL on the default device, 90% full: steady-state
// random overwrites (foreground GC included), random reads, trims, and
// background reclaim.
func probeFTL(rng *rand.Rand, div int) (map[string]float64, error) {
	f, err := ftl.New(ftl.DefaultConfig())
	if err != nil {
		return nil, err
	}
	live := f.UserPages() * 9 / 10
	for lpn := int64(0); lpn < live; lpn++ {
		if _, _, err := f.Write(lpn); err != nil {
			return nil, err
		}
	}
	n := 200000 / div
	out := map[string]float64{}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := f.Write(rng.Int63n(live)); err != nil {
			return nil, err
		}
	}
	out["ftl.write_ns_per_page"] = per(t0, n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := f.Read(rng.Int63n(live)); err != nil {
			return nil, err
		}
	}
	out["ftl.read_ns_per_page"] = per(t0, n)
	t0 = time.Now()
	for i := 0; i < n/10; i++ {
		if err := f.Trim(rng.Int63n(live)); err != nil {
			return nil, err
		}
	}
	out["ftl.trim_ns_per_page"] = per(t0, n/10)
	t0 = time.Now()
	res, err := f.ReclaimBackground(int64(n/50), 0)
	if err != nil {
		return nil, err
	}
	out["ftl.reclaim_ns_per_freed_page"] = per(t0, int(res.FreedPages))
	return out, nil
}

// probeFTLAccuracy runs the repo's scale protocol at the 1GiB preset: greedy
// GC under uniform random writes, whose steady-state WAF must lie between
// the analytic greedy bound and the mean-field (random selection) model of
// Li/Lee/Lui — the accuracy reference that does not depend on our goldens.
// Position 0 is the greedy bound, 1 the mean-field model.
func probeFTLAccuracy(seed int64) (map[string]float64, error) {
	preset, err := nand.PresetByName("1GiB")
	if err != nil {
		return nil, err
	}
	r, err := jitgc.RunScalePreset(preset, seed)
	if err != nil {
		return nil, err
	}
	pos := (r.WAF - r.GreedyWAF) / (r.MeanFieldWAF - r.GreedyWAF)
	// The same 5% tolerance paperbench's scale table applies.
	if r.WAF < 0.95*r.GreedyWAF || r.WAF > 1.05*r.MeanFieldWAF {
		return nil, fmt.Errorf("ftl.probe_waf %.4f outside the greedy/mean-field bracket [%.4f, %.4f]",
			r.WAF, r.GreedyWAF, r.MeanFieldWAF)
	}
	return map[string]float64{
		"ftl.probe_waf":           r.WAF,
		"ftl.waf_bracket_pos":     pos,
		"ftl.meta_bytes_per_page": r.MetaBytesPerPage,
	}, nil
}

// dirtyCache returns a simulator-configured page cache holding
// probeDirtyPages dirty pages written over the first 10 s.
func dirtyCache(rng *rand.Rand) (*pagecache.Cache, error) {
	c, err := pagecache.New(sim.DefaultConfig().Cache)
	if err != nil {
		return nil, err
	}
	for lpn := int64(0); lpn < probeDirtyPages; lpn++ {
		if _, err := c.Write(time.Duration(rng.Int63n(int64(10*time.Second))), lpn, 1); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// probePageCache times buffered writes, the dirty-set scan the buffered
// predictor starts from, and the flusher.
func probePageCache(rng *rand.Rand, div int) (map[string]float64, error) {
	c, err := dirtyCache(rng)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	n := 200000 / div
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Write(10*time.Second, rng.Int63n(probeDirtyPages), 1); err != nil {
			return nil, err
		}
	}
	out["pagecache.write_ns_per_page"] = per(t0, n)
	scans := max(1, 20/div)
	t0 = time.Now()
	seen := 0
	for i := 0; i < scans; i++ {
		seen += len(c.DirtyPages())
	}
	out["pagecache.dirty_scan_ns_per_page"] = per(t0, seen)
	t0 = time.Now()
	flushed := len(c.Flush(time.Hour)) // everything has expired by then
	out["pagecache.flush_ns_per_page"] = per(t0, flushed)
	return out, nil
}

// stubView is a fixed DeviceView: a device short of free space, so that the
// policies do their full computation.
type stubView struct{}

func (stubView) FreeBytes() int64        { return 4 << 20 }
func (stubView) WriteBandwidth() float64 { return 8 << 20 }
func (stubView) GCBandwidth() float64    { return 2 << 20 }
func (stubView) IdleFraction() float64   { return 0.5 }

// probePolicy times the predictors and the policies' interval decisions at
// probeDirtyPages dirty pages.
func probePolicy(rng *rand.Rand, div int) (map[string]float64, error) {
	c, err := dirtyCache(rng)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	calls := max(1, 20/div)
	buf := predictor.NewBuffered(c)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		buf.Predict(10*time.Second + time.Duration(i)*buf.WriteBack().Period)
	}
	out["predictor.buffered_predict_ns_per_dirty_page"] = per(t0, calls*probeDirtyPages)

	wb := buf.WriteBack()
	cdh, err := predictor.NewCDHTracker(wb, predictor.DefaultPercentile, 1<<20, 512, 64)
	if err != nil {
		return nil, err
	}
	n := 1000000 / div
	t0 = time.Now()
	for i := 0; i < n; i++ {
		cdh.Observe(4096)
	}
	out["predictor.cdh_observe_ns"] = per(t0, n)
	for i := 0; i < 100*wb.Nwb(); i++ { // close 100 windows of varied volume
		cdh.Observe(rng.Int63n(256 << 20))
		cdh.Tick()
	}
	var sink int64
	defer func() { probeSink += float64(sink) }()
	t0 = time.Now()
	for i := 0; i < n/10; i++ {
		sink += cdh.Reserve()
	}
	out["predictor.cdh_reserve_ns"] = per(t0, n/10)

	jit, err := core.NewJITGC(c, core.JITOptions{})
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		sink += jit.OnInterval(10*time.Second+time.Duration(i)*wb.Period, stubView{}).ReclaimBytes
	}
	out["core.jit_oninterval_ns"] = per(t0, calls)
	fixed := core.NewAggressiveBGC(16 << 20)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		sink += fixed.OnInterval(0, stubView{}).ReclaimBytes
	}
	out["core.fixed_oninterval_ns"] = per(t0, n)
	demand := []int64{6 << 20, 2 << 20, 1 << 20, 3 << 20, 1 << 20, 4 << 20}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		sink += core.Schedule(demand, 4<<20, wb.Period, 8<<20, 2<<20, 0.5)
	}
	out["core.schedule_ns"] = per(t0, n)
	return out, nil
}

// probeHistograms times the CDH histogram, both latency recorders and the
// log-bucketed histogram behind the streaming one.
func probeHistograms(rng *rand.Rand, div int) (map[string]float64, error) {
	out := map[string]float64{}
	n := 1000000 / div
	h, err := histogram.NewWindowed(1<<20, 512, 64)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(rng.Int63n(512 << 20))
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Add(vals[i%len(vals)])
	}
	out["histogram.add_ns"] = per(t0, n)
	var sink float64
	t0 = time.Now()
	for i := 0; i < n/10; i++ {
		sink += h.ValueAtPercentile(0.8)
	}
	out["histogram.percentile_ns"] = per(t0, n/10)

	lats := make([]time.Duration, 1024)
	for i := range lats {
		lats[i] = time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
	}
	var exact metrics.LatencyRecorder
	t0 = time.Now()
	for i := 0; i < n; i++ {
		exact.Add(lats[i%len(lats)])
	}
	out["metrics.latency_add_ns"] = per(t0, n)
	t0 = time.Now()
	sink += float64(exact.Percentile(99))
	out["metrics.latency_p99_ns_per_sample"] = per(t0, n)
	lh := telemetry.NewLogHist()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		lh.Add(int64(lats[i%len(lats)]))
	}
	out["telemetry.loghist_add_ns"] = per(t0, n)
	probeSink += sink
	return out, nil
}

// probeEvents is a realistic event mix, made through the tracer's own
// methods so that every event carries exactly its type's fields: requests,
// with a GC episode and an erase every hundred.
func probeEvents(rng *rand.Rand, n int) ([]telemetry.Event, error) {
	ring, err := telemetry.NewRingSink(n + n/25)
	if err != nil {
		return nil, err
	}
	tr := telemetry.New(ring)
	kinds := []string{"R", "W", "D"}
	for i := 0; i < n; i++ {
		now := time.Duration(i) * time.Millisecond
		tr.Request(now, kinds[rng.Intn(len(kinds))], rng.Int63n(1<<16), 1+rng.Intn(8), time.Duration(rng.Int63n(int64(time.Millisecond))))
		if i%100 == 99 {
			victim := rng.Intn(512)
			tr.GCStart(now, false, victim, rng.Intn(128), rng.Intn(16))
			tr.Erase(now, victim, int64(i/100), 3*time.Millisecond)
			tr.GCEnd(now, false, victim, int64(rng.Intn(128)), 5*time.Millisecond)
		}
	}
	return ring.Events(), nil
}

// probeTelemetry times each sink on the same event stream, and the binlog
// decoder on what the encoder wrote.
func probeTelemetry(rng *rand.Rand, div int) (map[string]float64, error) {
	evs, err := probeEvents(rng, 100000/div)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	emit := func(name string, s telemetry.Sink) error {
		t0 := time.Now()
		for _, ev := range evs {
			s.Emit(ev)
		}
		err := s.Close()
		out[name] = per(t0, len(evs))
		return err
	}
	ring, err := telemetry.NewRingSink(1 << 16)
	if err != nil {
		return nil, err
	}
	if err := emit("telemetry.ring_emit_ns_per_event", ring); err != nil {
		return nil, err
	}
	if err := emit("telemetry.jsonl_emit_ns_per_event", telemetry.NewJSONLSink(&countingWriter{})); err != nil {
		return nil, err
	}
	var enc bytes.Buffer
	if err := emit("binlog.encode_ns_per_event", binlog.NewBinSink(&enc, binlog.Options{})); err != nil {
		return nil, err
	}
	t0 := time.Now()
	back, err := binlog.Decode(&enc)
	if err != nil {
		return nil, err
	}
	if len(back) != len(evs) {
		return nil, fmt.Errorf("binlog round trip: %d events in, %d out", len(evs), len(back))
	}
	out["binlog.decode_ns_per_event"] = per(t0, len(back))
	return out, nil
}

// probeTrace times the two parsers of external request streams.
func probeTrace(rng *rand.Rand, div int) (map[string]float64, error) {
	n := 100000 / div
	reqs, err := wl.NewYCSB().Generate(wl.Params{Seed: rng.Int63(), Ops: n, WorkingSetPages: 1 << 15})
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := trace.Encode(&text, reqs); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	t0 := time.Now()
	back, err := trace.Decode(&text)
	if err != nil {
		return nil, err
	}
	if len(back) != n {
		return nil, fmt.Errorf("trace round trip: %d requests in, %d out", n, len(back))
	}
	out["trace.decode_ns_per_req"] = per(t0, n)

	var msr bytes.Buffer
	ts := int64(128166372000000000) // a FILETIME in 2007, as the MSR corpus carries
	for i := 0; i < n; i++ {
		ts += 1 + rng.Int63n(100000)
		kind := "Write"
		if rng.Intn(3) == 0 {
			kind = "Read"
		}
		fmt.Fprintf(&msr, "%d,hm,0,%s,%d,%d,%d\n", ts, kind, 4096*rng.Int63n(1<<20), 4096*(1+rng.Intn(16)), rng.Intn(100000))
	}
	t0 = time.Now()
	back, err = trace.DecodeMSR(&msr, trace.MSROptions{Disk: -1, MaxLPN: 1 << 15})
	if err != nil {
		return nil, err
	}
	if len(back) != n {
		return nil, fmt.Errorf("msr decode: %d lines in, %d requests out", n, len(back))
	}
	out["trace.msr_decode_ns_per_req"] = per(t0, n)
	return out, nil
}
