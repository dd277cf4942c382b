package array

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"jitgc/internal/core"
	"jitgc/internal/ftl"
	"jitgc/internal/nand"
	"jitgc/internal/pagecache"
	"jitgc/internal/sim"
	"jitgc/internal/trace"
)

// tinyDevice builds a small but GC-capable member device: 32 blocks × 16
// pages, 1/3 OP, fast write-back timing so tests cross many intervals.
func tinyDevice() sim.Config {
	fcfg := ftl.Config{
		Geometry: nand.Geometry{
			Channels: 2, ChipsPerChannel: 1, BlocksPerChip: 16,
			PagesPerBlock: 16, PageSize: 4096,
		},
		OPRatio: 0.34,
	}
	ccfg := pagecache.Config{
		PageSize:      4096,
		CapacityPages: 4096,
		FlusherPeriod: time.Second,
		Expire:        6 * time.Second,
		FlushRatio:    0.8,
	}
	return sim.Config{FTL: fcfg, Cache: ccfg, DrainCache: true}
}

func lazyFactory(env *sim.Env) (core.Policy, error) {
	return core.NewLazyBGC(env.OPBytes()), nil
}

func newArray(t *testing.T, cfg Config) *Array {
	t.Helper()
	a, err := New(cfg, lazyFactory)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

// stream builds a deterministic closed-loop mix of reads, buffered and
// direct writes, and trims confined to [0, span) pages.
func stream(n int, span int64) []trace.Request {
	reqs := make([]trace.Request, 0, n)
	for i := 0; i < n; i++ {
		lpn := (int64(i) * 37) % (span - 16)
		think := time.Duration(i%5) * time.Millisecond
		r := trace.Request{Time: think, LPN: lpn, Pages: 8, Kind: trace.BufferedWrite}
		switch i % 7 {
		case 0:
			r.Kind, r.Pages = trace.Read, 4
		case 3:
			r.Kind, r.Pages = trace.DirectWrite, 2
		case 5:
			r.Kind, r.Pages = trace.Trim, 2
		}
		reqs = append(reqs, r)
	}
	return reqs
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Devices: 8, Device: tinyDevice()}.withDefaults()
	if cfg.StripePages != 64 {
		t.Errorf("default stripe = %d, want 64", cfg.StripePages)
	}
	if cfg.Mode != Independent {
		t.Errorf("default mode = %q", cfg.Mode)
	}
	if cfg.MaxConcurrentGC != 4 {
		t.Errorf("default K for 8 devices = %d, want 4", cfg.MaxConcurrentGC)
	}
	if !cfg.Device.NonPreemptiveBGC {
		t.Error("array devices must run non-preemptive BGC")
	}
	cfg = Config{Devices: 2, Device: tinyDevice()}.withDefaults()
	if cfg.MaxConcurrentGC != 1 {
		t.Errorf("default K for 2 devices = %d, want 1", cfg.MaxConcurrentGC)
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Devices: 2, Device: tinyDevice()}.withDefaults()
	}
	if err := base().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"zero devices":    func(c *Config) { c.Devices = 0 },
		"negative stripe": func(c *Config) { c.StripePages = -1 },
		"bad mode":        func(c *Config) { c.Mode = "chaotic" },
		"zero K":          func(c *Config) { c.MaxConcurrentGC = -3 },
		"bad device":      func(c *Config) { c.Device.PreconditionPages = -1 },
	} {
		cfg := base()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := New(Config{Devices: 1, StripePages: 1 << 40, Device: tinyDevice()}, lazyFactory); err == nil {
		t.Error("accepted stripe larger than device capacity")
	}
}

func TestParseMode(t *testing.T) {
	for _, s := range []string{"independent", "coordinated"} {
		m, err := ParseMode(s)
		if err != nil || string(m) != s {
			t.Errorf("ParseMode(%q) = %q, %v", s, m, err)
		}
	}
	if _, err := ParseMode("sync"); err == nil {
		t.Error("accepted unknown mode")
	}
}

// TestLocateBijection checks that striping is a bijection from array LPNs
// onto per-device locals, spread evenly across members.
func TestLocateBijection(t *testing.T) {
	a := newArray(t, Config{Devices: 4, StripePages: 4, Device: tinyDevice()})
	seen := make(map[[2]int64]int64)
	perDev := make([]int64, 4)
	for alpn := int64(0); alpn < a.UserPages(); alpn++ {
		dev, dlpn := a.locate(alpn)
		if dev < 0 || dev >= 4 {
			t.Fatalf("lpn %d: device %d out of range", alpn, dev)
		}
		if dlpn < 0 || dlpn >= a.perDevPages {
			t.Fatalf("lpn %d: local %d outside device capacity %d", alpn, dlpn, a.perDevPages)
		}
		key := [2]int64{int64(dev), dlpn}
		if prev, dup := seen[key]; dup {
			t.Fatalf("lpns %d and %d both map to device %d local %d", prev, alpn, dev, dlpn)
		}
		seen[key] = alpn
		perDev[dev]++
	}
	for i, n := range perDev {
		if n != a.perDevPages {
			t.Errorf("device %d holds %d pages, want %d", i, n, a.perDevPages)
		}
	}
}

// TestSplit checks page conservation and contiguity merging.
func TestSplit(t *testing.T) {
	a := newArray(t, Config{Devices: 2, StripePages: 2, Device: tinyDevice()})
	cases := []struct {
		lpn   int64
		pages int
	}{
		{0, 1}, {1, 1}, {0, 2}, {1, 2}, {0, 8}, {3, 9}, {7, 1}, {2, 5},
	}
	for _, c := range cases {
		a.split(c.lpn, c.pages)
		total := 0
		for dev, exts := range a.ext {
			for _, e := range exts {
				if e.lpn < 0 || e.lpn+int64(e.pages) > a.perDevPages {
					t.Errorf("split(%d,%d): device %d extent %v out of bounds", c.lpn, c.pages, dev, e)
				}
				total += e.pages
			}
		}
		if total != c.pages {
			t.Errorf("split(%d,%d): %d pages after split", c.lpn, c.pages, total)
		}
	}
	// A full wrap around both devices merges into one extent per device:
	// array pages 0..7 are stripes 0..3, devices 0,1,0,1, locals 0..3.
	a.split(0, 8)
	for dev, exts := range a.ext {
		if len(exts) != 1 || exts[0] != (extent{0, 4}) {
			t.Errorf("device %d extents = %v, want [{0 4}]", dev, exts)
		}
	}
}

// TestSingleDeviceMatchesSimulator pins the stepping API: a 1-device array
// must reproduce a plain simulator run bit-for-bit.
func TestSingleDeviceMatchesSimulator(t *testing.T) {
	dev := tinyDevice()
	dev.PreconditionPages = 128

	a := newArray(t, Config{Devices: 1, StripePages: 16, Device: dev})
	reqs := stream(600, a.UserPages())
	arr, err := a.RunClosedLoop(reqs)
	if err != nil {
		t.Fatal(err)
	}

	dev.NonPreemptiveBGC = true // the array forces this on its members
	s, err := sim.New(dev, lazyFactory)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.RunClosedLoop(reqs)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(arr.Array, ref) {
		t.Errorf("1-device array diverged from simulator:\narray: %+v\n  sim: %+v", arr.Array, ref)
	}
	if arr.WAFMin != ref.WAF || arr.WAFMax != ref.WAF {
		t.Errorf("WAF spread [%v,%v] on one device, want both %v", arr.WAFMin, arr.WAFMax, ref.WAF)
	}
}

// TestRunClosedLoopMergesMembers drives the array with 10 ms think times
// and checks the merged record plus the per-device accessors used by
// reports.
func TestRunClosedLoopMergesMembers(t *testing.T) {
	a := newArray(t, Config{Devices: 2, StripePages: 4, Device: tinyDevice()})
	var reqs []trace.Request
	for i := 0; i < 64; i++ {
		reqs = append(reqs, trace.Request{
			Time:  10 * time.Millisecond,
			Kind:  trace.DirectWrite,
			LPN:   int64(i*4) % a.UserPages(),
			Pages: 4,
		})
	}
	res, err := a.RunClosedLoop(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Array.Requests != 64 {
		t.Errorf("requests = %d, want 64", res.Array.Requests)
	}
	if res.Array.DirectPages != 64*4 {
		t.Errorf("direct pages = %d, want %d", res.Array.DirectPages, 64*4)
	}
	if got := res.WAFSpread(); got != res.WAFMax-res.WAFMin || got < 0 {
		t.Errorf("WAFSpread = %v (min %v, max %v)", got, res.WAFMin, res.WAFMax)
	}
	// The stream round-robins stripes, so both members must have served
	// device writes.
	for i := 0; i < 2; i++ {
		if dev := a.Device(i); dev.Results().HostPrograms == 0 {
			t.Errorf("device %d saw no programs", i)
		}
	}
}

func TestRequestBeyondCapacity(t *testing.T) {
	a := newArray(t, Config{Devices: 2, StripePages: 4, Device: tinyDevice()})
	_, err := a.RunClosedLoop([]trace.Request{
		{Time: 0, Kind: trace.DirectWrite, LPN: a.UserPages() - 1, Pages: 2},
	})
	if !errors.Is(err, sim.ErrTraceBeyondCapacity) {
		t.Errorf("err = %v, want ErrTraceBeyondCapacity", err)
	}
}

// TestCoordinateTokenRotation drives the coordinator directly: with K = 1
// and every device demanding reclaim, exactly one grant per interval,
// rotating through the members.
func TestCoordinateTokenRotation(t *testing.T) {
	a := newArray(t, Config{
		Devices: 4, StripePages: 4, Mode: Coordinated, MaxConcurrentGC: 1,
		Device: tinyDevice(),
	})
	for round := 0; round < 8; round++ {
		decs := make([]core.Decision, 4)
		for i := range decs {
			decs[i] = core.Decision{ReclaimBytes: 4096}
		}
		a.coordinate(0, decs)
		for i, d := range decs {
			want := int64(0)
			if i == round%4 {
				want = 4096
			}
			if d.ReclaimBytes != want {
				t.Fatalf("round %d device %d reclaim = %d, want %d", round, i, d.ReclaimBytes, want)
			}
		}
	}
	if a.granted != 8 || a.denied != 24 {
		t.Errorf("granted/denied = %d/%d, want 8/24", a.granted, a.denied)
	}
}

// TestCoordinateCriticalBypass: a device already short of its own demand
// is granted outside the token without consuming a slot.
func TestCoordinateCriticalBypass(t *testing.T) {
	a := newArray(t, Config{
		Devices: 4, StripePages: 4, Mode: Coordinated, MaxConcurrentGC: 1,
		Device: tinyDevice(),
	})
	huge := a.devs[2].FTL().WritableBytes() + 1
	decs := []core.Decision{
		{ReclaimBytes: 4096}, {ReclaimBytes: 4096},
		{ReclaimBytes: huge}, {ReclaimBytes: 4096},
	}
	a.coordinate(0, decs)
	if decs[2].ReclaimBytes != huge {
		t.Errorf("critical device throttled to %d", decs[2].ReclaimBytes)
	}
	if decs[0].ReclaimBytes != 4096 {
		t.Errorf("token holder denied alongside critical bypass: %d", decs[0].ReclaimBytes)
	}
	if decs[1].ReclaimBytes != 0 || decs[3].ReclaimBytes != 0 {
		t.Errorf("over-granted: %d/%d", decs[1].ReclaimBytes, decs[3].ReclaimBytes)
	}
}

// TestCoordinateUrgencyIsSchedule pins the coordinator's urgency to
// core.Schedule on the aggregate forecast. Two members are mid-burst under
// the paper's write-back timing (p = 5 s, τ_expire = 30 s, Nwb = 6): A's
// large forecast makes it critical, so it bypasses the token; B is not
// critical and asks for 4 KiB. B is granted exactly when the array is
// urgent. At twice the free space the array is calm and B is deferred. At
// six times it plus one interval's margin, free space falls short of the
// next interval's demand while T_idle ≥ T_gc still holds at the horizon's
// end: only Schedule's next-tick rule makes the array urgent. Past the
// last-interval deadline T_idle < T_gc, and both rules agree.
func TestCoordinateUrgencyIsSchedule(t *testing.T) {
	const ask = 4096
	for _, tc := range []struct {
		name                   string
		demand                 func(free int64, bgc float64) int64 // aggregate forecast
		nextTick, lastDeadline bool                                // which of Schedule's rules fire
	}{
		{"calm", func(free int64, _ float64) int64 { return 2 * free }, false, false},
		{"next-tick", func(free int64, _ float64) int64 { return 6 * (free + ask) }, true, false},
		{"past-last-deadline", func(free int64, bgc float64) int64 { return free + int64(30*bgc) }, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := tinyDevice()
			dev.Cache.FlusherPeriod, dev.Cache.Expire = 5*time.Second, 30*time.Second
			a := newArray(t, Config{Devices: 2, StripePages: 4, Mode: Coordinated, Device: dev})
			nwb := int64(dev.Cache.Nwb())
			var free int64
			var bw, bgc float64
			for _, d := range a.devs {
				free += d.FTL().WritableBytes()
				bw += d.FTL().WriteBandwidth()
				bgc += d.FTL().GCBandwidth() / 2
			}
			demand := tc.demand(free, bgc) // K = 1: one collector's bandwidth
			tidle := max(dev.Cache.Expire.Seconds()-float64(demand)/bw, 0)
			tgc := float64(demand-free) / bgc
			if demand/nwb > free != tc.nextTick || tgc > tidle != tc.lastDeadline {
				t.Fatalf("demand %d, free %d: next-tick %v, T_gc %.2f s vs T_idle %.2f s: not the %s case",
					demand, free, demand/nwb > free, tgc, tidle, tc.name)
			}
			h := make([]int64, nwb)
			for j := range h {
				h[j] = demand / nwb
			}
			h[nwb-1] += demand % nwb
			urgent := core.Schedule(h, free, dev.Cache.FlusherPeriod, bw, bgc, 1) > 0
			if urgent != (tc.nextTick || tc.lastDeadline) {
				t.Fatalf("core.Schedule says urgent = %v", urgent)
			}

			a.intervalReqs = 1 // mid-burst
			decs := []core.Decision{
				{PredictedBytes: demand - ask, ReclaimBytes: ask},
				{ReclaimBytes: ask},
			}
			a.coordinate(0, decs)
			if decs[0].ReclaimBytes != ask || a.bypassed != 1 {
				t.Errorf("critical member A: reclaim %d, bypassed %d; want %d, 1", decs[0].ReclaimBytes, a.bypassed, ask)
			}
			granted := decs[1].ReclaimBytes == ask
			if granted != urgent {
				t.Errorf("member B granted = %v (reclaim %d), want core.Schedule's urgent = %v",
					granted, decs[1].ReclaimBytes, urgent)
			}
		})
	}
}

// TestModesRunDeterministically runs both modes on a 4-device array under
// write pressure and checks coordination accounting plus reproducibility.
func TestModesRunDeterministically(t *testing.T) {
	dev := tinyDevice()
	dev.PreconditionPages = 300
	run := func(mode Mode) Results {
		t.Helper()
		a := newArray(t, Config{Devices: 4, StripePages: 4, Mode: mode, Device: dev})
		res, err := a.RunClosedLoop(stream(1500, a.UserPages()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ind, coord := run(Independent), run(Coordinated)

	if ind.GCGranted != 0 || ind.GCDenied != 0 || ind.GCBoosted != 0 {
		t.Errorf("independent mode recorded token traffic: %+v", ind)
	}
	if coord.GCGranted == 0 {
		t.Error("coordinated mode never granted the token")
	}
	for _, res := range []Results{ind, coord} {
		if res.WAFMin < 1 || res.WAFMax < res.WAFMin {
			t.Errorf("WAF bounds [%v,%v] out of order", res.WAFMin, res.WAFMax)
		}
		if res.UtilMin <= 0 || res.UtilMax < res.UtilMin {
			t.Errorf("utilization bounds [%v,%v] out of order", res.UtilMin, res.UtilMax)
		}
		if res.Array.Requests != 1500 || len(res.PerDevice) != 4 {
			t.Errorf("merged record incomplete: %d requests, %d devices",
				res.Array.Requests, len(res.PerDevice))
		}
	}
	if again := run(Coordinated); !reflect.DeepEqual(coord, again) {
		t.Error("coordinated run is not deterministic")
	}
}

// TestResultsReportLatencyRecorder pins that the merged record says which
// recorder produced its percentiles: an array whose members stream streams
// its own whole-request latencies too, and must not pass the bucketed
// percentiles off as exact order statistics.
func TestResultsReportLatencyRecorder(t *testing.T) {
	for _, streaming := range []bool{false, true} {
		dev := tinyDevice()
		dev.PreconditionPages = 256
		dev.StreamingLatency = streaming
		a := newArray(t, Config{Devices: 2, StripePages: 4, Device: dev})
		res, err := a.RunClosedLoop(stream(400, a.UserPages()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Array.StreamingLatency != streaming {
			t.Errorf("members streaming=%v: Array.StreamingLatency = %v", streaming, res.Array.StreamingLatency)
		}
		for i, d := range res.PerDevice {
			if d.StreamingLatency != streaming {
				t.Errorf("members streaming=%v: device %d reports %v", streaming, i, d.StreamingLatency)
			}
		}
	}
}

// TestTickZeroAlloc: a coordinated write-back tick reuses the array's
// per-device decision and free-space scratch instead of allocating them.
func TestTickZeroAlloc(t *testing.T) {
	dev := tinyDevice()
	a := newArray(t, Config{Devices: 4, StripePages: 4, Mode: Coordinated, Device: dev})
	if _, err := a.RunClosedLoop(stream(300, a.UserPages())); err != nil {
		t.Fatal(err)
	}
	now := a.DeviceFreeAt()
	if avg := testing.AllocsPerRun(100, func() {
		now += dev.Cache.FlusherPeriod
		if err := a.Tick(now); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Tick allocates %.2f times, want 0", avg)
	}
}
