package array

import (
	"reflect"
	"testing"
	"time"

	"jitgc/internal/nand"
	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
)

// killMember arms a raw (fatal) program-fault injector on member dev: every
// program from the n-th on fails, which degrades the member at its next
// write.
func killMember(a *Array, dev int, n int64) {
	fm := nand.NewFaultModel(nand.FaultConfig{Seed: 1})
	a.Device(dev).FTL().Device().SetFaultInjector(fm)
	fm.FailFrom(nand.OpProgram, n)
}

// stripedWrites builds direct writes walking every stripe in order so both
// members see traffic, repeated rounds times.
func stripedWrites(a *Array, rounds int) []trace.Request {
	stripe := int(a.cfg.StripePages)
	var reqs []trace.Request
	for r := 0; r < rounds; r++ {
		for lpn := int64(0); lpn+int64(stripe) <= a.UserPages(); lpn += int64(stripe) {
			reqs = append(reqs, trace.Request{
				Time: time.Millisecond, Kind: trace.DirectWrite,
				LPN: lpn, Pages: int32(stripe),
			})
		}
	}
	return reqs
}

// TestMirrorServesDegradedReads kills one member of a mirrored pair and
// checks the degraded-service contract: nothing fails fast, reads touching
// the dead member come from the neighbor copy, writes are carried by the
// surviving copy, and no stripe is left torn.
func TestMirrorServesDegradedReads(t *testing.T) {
	a := newArray(t, Config{
		Devices: 2, StripePages: 8, Redundancy: RedundancyMirror,
		Device: tinyDevice(),
	})
	killMember(a, 1, 40)

	reqs := stripedWrites(a, 4)
	for lpn := int64(0); lpn+8 <= a.UserPages(); lpn += 8 {
		reqs = append(reqs, trace.Request{
			Time: time.Millisecond, Kind: trace.Read, LPN: lpn, Pages: 8,
		})
	}
	res, err := a.RunClosedLoop(reqs)
	if err != nil {
		t.Fatalf("RunClosedLoop: %v", err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0] != 1 {
		t.Fatalf("Degraded = %v, want [1]", res.Degraded)
	}
	if res.FailedRequests != 0 {
		t.Errorf("%d requests failed fast under mirror redundancy", res.FailedRequests)
	}
	if res.TornStripes != 0 {
		t.Errorf("%d torn stripes under mirror redundancy", res.TornStripes)
	}
	if res.Array.Requests != int64(len(reqs)) {
		t.Errorf("served %d of %d requests", res.Array.Requests, len(reqs))
	}
	if res.DegradedReads == 0 {
		t.Error("no reads served from the mirror copy")
	}
	if res.DegradedWrites == 0 {
		t.Error("no writes carried by the surviving copy")
	}
}

// TestParityReconstructsDegradedReads does the same on a 3-device rotated
// parity array: reads touching the dead member reconstruct from the row's
// survivors.
func TestParityReconstructsDegradedReads(t *testing.T) {
	a := newArray(t, Config{
		Devices: 3, StripePages: 8, Redundancy: RedundancyParity,
		Device: tinyDevice(),
	})
	killMember(a, 1, 40)

	reqs := stripedWrites(a, 4)
	for lpn := int64(0); lpn+8 <= a.UserPages(); lpn += 8 {
		reqs = append(reqs, trace.Request{
			Time: time.Millisecond, Kind: trace.Read, LPN: lpn, Pages: 8,
		})
	}
	res, err := a.RunClosedLoop(reqs)
	if err != nil {
		t.Fatalf("RunClosedLoop: %v", err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0] != 1 {
		t.Fatalf("Degraded = %v, want [1]", res.Degraded)
	}
	if res.FailedRequests != 0 {
		t.Errorf("%d requests failed fast under parity redundancy", res.FailedRequests)
	}
	if res.DegradedReads == 0 {
		t.Error("no reads reconstructed from the row survivors")
	}
}

// TestSpareRebuildRestoresArray is the acceptance scenario: a two-device
// mirrored array with one standby spare loses a member mid-run. The mirror
// serves every request throughout, the spare is rebuilt in the background
// and swaps into the slot, and the run ends with no degraded member and no
// permanently failed stripe.
func TestSpareRebuildRestoresArray(t *testing.T) {
	ring, err := telemetry.NewRingSink(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	dev := tinyDevice()
	dev.Tracer = telemetry.New(ring)
	a := newArray(t, Config{
		Devices: 2, StripePages: 8, Redundancy: RedundancyMirror, Spares: 1,
		Device: dev,
	})
	killMember(a, 1, 40)

	res, err := a.RunClosedLoop(stripedWrites(a, 6))
	if err != nil {
		t.Fatalf("RunClosedLoop: %v", err)
	}
	if res.FailedRequests != 0 || res.TornStripes != 0 {
		t.Errorf("failed=%d torn=%d, want 0/0: mirror must bridge the rebuild",
			res.FailedRequests, res.TornStripes)
	}
	if !reflect.DeepEqual(res.Rebuilt, []int{1}) {
		t.Fatalf("Rebuilt = %v, want [1]", res.Rebuilt)
	}
	if len(res.Degraded) != 0 {
		t.Errorf("Degraded = %v after a completed rebuild, want none", res.Degraded)
	}
	if a.Degraded(1) != nil {
		t.Errorf("slot 1 still degraded after swap-in: %v", a.Degraded(1))
	}
	if res.SparesRemaining != 0 {
		t.Errorf("SparesRemaining = %d, want 0", res.SparesRemaining)
	}
	if res.RebuildPages == 0 || res.RebuildTime <= 0 {
		t.Errorf("rebuild moved %d pages in %v", res.RebuildPages, res.RebuildTime)
	}
	if len(res.ReplacedDevices) != 1 {
		t.Errorf("%d replaced-device records, want 1", len(res.ReplacedDevices))
	}
	// The swap-in must hand the slot to a live device: the primary shard
	// the spare now holds serves reads without touching the mirror.
	if _, err := a.devs[1].StepRequest(trace.Request{
		Time: res.Array.SimTime, Kind: trace.Read, LPN: 0, Pages: 1,
	}); err != nil {
		t.Errorf("read on the rebuilt slot: %v", err)
	}

	var start, end int
	for _, ev := range ring.Events() {
		if ev.Type != telemetry.EvRebuild {
			continue
		}
		switch ev.Action {
		case telemetry.ActionStart:
			start++
		case telemetry.ActionEnd:
			end++
		}
	}
	if start != 1 || end != 1 {
		t.Errorf("rebuild events start/end = %d/%d, want 1/1", start, end)
	}
}

// TestSalvageRebuildWithoutRedundancy covers the unprotected path: requests
// touching the dead member fail fast while the spare salvages the shard
// from the dead member's still-readable flash, and service resumes once the
// spare swaps in.
func TestSalvageRebuildWithoutRedundancy(t *testing.T) {
	a := newArray(t, Config{
		Devices: 2, StripePages: 8, Spares: 1, Device: tinyDevice(),
	})
	killMember(a, 1, 40)

	reqs := stripedWrites(a, 3)
	// A long think time parks the host across several write-back ticks so
	// the rebuild finishes before the final round arrives.
	reqs = append(reqs, trace.Request{
		Time: 10 * time.Second, Kind: trace.DirectWrite, LPN: 0, Pages: 8,
	})
	reqs = append(reqs, stripedWrites(a, 1)...)
	res, err := a.RunClosedLoop(reqs)
	if err != nil {
		t.Fatalf("RunClosedLoop: %v", err)
	}
	if !reflect.DeepEqual(res.Rebuilt, []int{1}) {
		t.Fatalf("Rebuilt = %v, want [1]", res.Rebuilt)
	}
	if res.FailedRequests == 0 {
		t.Error("no request failed fast while the unprotected shard rebuilt")
	}
	if len(res.Degraded) != 0 {
		t.Errorf("Degraded = %v after swap-in, want none", res.Degraded)
	}
	// The final round striped onto the swapped-in spare: its record (now at
	// slot 1) must show served host programs.
	if res.PerDevice[1].HostPrograms == 0 {
		t.Error("rebuilt slot served no host programs after swap-in")
	}
}

// TestStripeTornAccounting pins the partial-stripe bookkeeping: when a
// member dies mid-request after earlier segments landed on the survivor,
// the tear is counted once, announced via telemetry, and the survivor's
// FTL holds exactly the segments that landed.
func TestStripeTornAccounting(t *testing.T) {
	ring, err := telemetry.NewRingSink(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	dev := tinyDevice()
	dev.Tracer = telemetry.New(ring)
	a := newArray(t, Config{Devices: 2, StripePages: 8, Device: dev})
	killMember(a, 1, 0) // member 1 fails its very first program

	// One request spanning stripes 0 (device 0) and 1 (device 1): the
	// device-0 half lands, the device-1 half kills the member.
	res, err := a.RunClosedLoop([]trace.Request{
		{Time: time.Millisecond, Kind: trace.DirectWrite, LPN: 0, Pages: 16},
	})
	if err != nil {
		t.Fatalf("RunClosedLoop: %v", err)
	}
	if res.TornStripes != 1 {
		t.Fatalf("TornStripes = %d, want 1", res.TornStripes)
	}
	if res.FailedRequests != 1 {
		t.Errorf("FailedRequests = %d, want 1", res.FailedRequests)
	}
	// Shadow expectation: survivor locals 0..7 mapped, dead member empty.
	for l := int64(0); l < 8; l++ {
		if a.Device(0).FTL().MappedPPN(l) == -1 {
			t.Errorf("survivor local %d unmapped: landed half of the torn stripe lost", l)
		}
	}
	if a.Device(1).FTL().MappedPPN(0) != -1 {
		t.Error("dead member mapped a page from its failed program")
	}

	torn := 0
	for _, ev := range ring.Events() {
		if ev.Type == telemetry.EvStripeTorn {
			torn++
			if ev.Dev != 1 {
				t.Errorf("stripe_torn on dev %d, want 1", ev.Dev)
			}
		}
	}
	if torn != 1 {
		t.Errorf("%d stripe_torn events, want 1", torn)
	}
}

// TestSpreadExcludesDegradedMembers checks that a dead member's partial
// record no longer drags the WAF/utilization spread: the two statistics
// must come out of the healthy members alone.
func TestSpreadExcludesDegradedMembers(t *testing.T) {
	a := newArray(t, Config{Devices: 4, StripePages: 8, Device: tinyDevice()})
	killMember(a, 1, 40)
	res, err := a.RunClosedLoop(stripedWrites(a, 6))
	if err != nil {
		t.Fatalf("RunClosedLoop: %v", err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0] != 1 {
		t.Fatalf("Degraded = %v, want [1]", res.Degraded)
	}
	dead := res.PerDevice[1]
	if dead.WAF >= res.WAFMin && dead.WAF <= res.WAFMax {
		// The dead member's WAF landing inside the healthy band is possible
		// but its inclusion is not: recompute the band without it and make
		// sure the reported bounds match.
		min, max := 0.0, 0.0
		first := true
		for i, r := range res.PerDevice {
			if i == 1 {
				continue
			}
			if first || r.WAF < min {
				min = r.WAF
			}
			if first || r.WAF > max {
				max = r.WAF
			}
			first = false
		}
		if res.WAFMin != min || res.WAFMax != max {
			t.Errorf("WAF spread [%v,%v] includes the degraded member (healthy band [%v,%v])",
				res.WAFMin, res.WAFMax, min, max)
		}
	}
	// Utilization normalizes over healthy members only: with the dead
	// member excluded the healthy three each sit near the even share.
	if res.UtilMin <= 0 || res.UtilMax < res.UtilMin {
		t.Errorf("utilization bounds [%v,%v] out of order", res.UtilMin, res.UtilMax)
	}
}

// TestAdaptiveCapDefaults pins the width-dependent default: the static
// N/2 token up to 8 devices (the regime it was tuned in), the adaptive cap
// beyond.
func TestAdaptiveCapDefaults(t *testing.T) {
	for _, tc := range []struct {
		devices, want int
	}{
		{2, 1}, {4, 2}, {8, 4},
		{16, AdaptiveCap}, {32, AdaptiveCap}, {64, AdaptiveCap},
	} {
		cfg := Config{Devices: tc.devices, Device: tinyDevice()}.withDefaults()
		if cfg.MaxConcurrentGC != tc.want {
			t.Errorf("default K for %d devices = %d, want %d",
				tc.devices, cfg.MaxConcurrentGC, tc.want)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("defaulted config for %d devices rejected: %v", tc.devices, err)
		}
	}
}

// TestAdaptiveCapClamps drives the burn-rate sizing rule directly: no burn
// collapses the width to one collector, an extreme burn saturates at the
// healthy member count.
func TestAdaptiveCapClamps(t *testing.T) {
	a := newArray(t, Config{
		Devices: 16, StripePages: 8, Mode: Coordinated,
		MaxConcurrentGC: AdaptiveCap, Device: tinyDevice(),
	})
	bgc := a.devs[0].FTL().GCBandwidth()
	if k := a.adaptiveCap(16, bgc); k != 1 {
		t.Errorf("idle adaptive cap = %d, want 1", k)
	}
	for i := range a.burnEMA {
		a.burnEMA[i] = 1 << 40
	}
	if k := a.adaptiveCap(16, bgc); k != 16 {
		t.Errorf("saturated adaptive cap = %d, want 16 (healthy count)", k)
	}
	// A moderate burn sizes between the extremes: one device's worth of
	// per-interval GC bandwidth needs exactly one collector.
	for i := range a.burnEMA {
		a.burnEMA[i] = 0
	}
	per := bgc * a.cfg.Device.Cache.FlusherPeriod.Seconds()
	a.burnEMA[0] = int64(per)
	if k := a.adaptiveCap(16, bgc); k != 1 {
		t.Errorf("one-device burn cap = %d, want 1", k)
	}
	a.burnEMA[1], a.burnEMA[2] = int64(2*per), int64(per/2)
	if k := a.adaptiveCap(16, bgc); k != 4 {
		t.Errorf("3.5-device burn cap = %d, want 4 (ceil)", k)
	}
}

// TestRebuildDeterminism repeats the spare-rebuild run and requires
// bit-identical results: maintenance interleaves on the shared clock, so
// its bookkeeping must be as reproducible as the request path.
func TestRebuildDeterminism(t *testing.T) {
	run := func() Results {
		t.Helper()
		a := newArray(t, Config{
			Devices: 2, StripePages: 8, Redundancy: RedundancyMirror, Spares: 1,
			Device: tinyDevice(),
		})
		killMember(a, 1, 40)
		res, err := a.RunClosedLoop(stripedWrites(a, 6))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("rebuild run is not deterministic:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestRedundancyValidation covers the new configuration surface.
func TestRedundancyValidation(t *testing.T) {
	base := func() Config {
		return Config{Devices: 4, Device: tinyDevice()}.withDefaults()
	}
	for name, mutate := range map[string]func(*Config){
		"unknown redundancy":  func(c *Config) { c.Redundancy = "raid7" },
		"mirror needs pair":   func(c *Config) { c.Devices = 1; c.Redundancy = RedundancyMirror },
		"parity needs trio":   func(c *Config) { c.Devices = 2; c.Redundancy = RedundancyParity },
		"negative spares":     func(c *Config) { c.Spares = -1 },
		"zero rebuild budget": func(c *Config) { c.RebuildPagesPerTick = -5 },
	} {
		cfg := base()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseRedundancy("mirror"); err != nil {
		t.Errorf("ParseRedundancy(mirror): %v", err)
	}
	if _, err := ParseRedundancy("raid0"); err == nil {
		t.Error("ParseRedundancy accepted an unknown scheme")
	}
}

// TestParitySpareRebuild covers the reconstruction rebuild path: a
// three-device parity array with a spare loses a member, keeps serving from
// the row survivors (writes carried by the parity unit, trims written
// through to the spare), and the spare reconstructs the shard and swaps in.
func TestParitySpareRebuild(t *testing.T) {
	a := newArray(t, Config{
		Devices: 3, StripePages: 8, Redundancy: RedundancyParity, Spares: 1,
		RebuildPagesPerTick: 8, Device: tinyDevice(),
	})
	killMember(a, 1, 40)

	reqs := stripedWrites(a, 4)
	// Trims across every stripe exercise both the healthy trim path and the
	// degraded write-through-to-spare path while the rebuild is active.
	for lpn := int64(0); lpn+8 <= a.UserPages(); lpn += 8 {
		reqs = append(reqs, trace.Request{
			Time: time.Millisecond, Kind: trace.Trim, LPN: lpn, Pages: 8,
		})
	}
	reqs = append(reqs, stripedWrites(a, 2)...)
	res, err := a.RunClosedLoop(reqs)
	if err != nil {
		t.Fatalf("RunClosedLoop: %v", err)
	}
	if res.FailedRequests != 0 {
		t.Errorf("%d requests failed fast under parity redundancy", res.FailedRequests)
	}
	if !reflect.DeepEqual(res.Rebuilt, []int{1}) {
		t.Fatalf("Rebuilt = %v, want [1]", res.Rebuilt)
	}
	if len(res.Degraded) != 0 {
		t.Errorf("Degraded = %v after swap-in, want none", res.Degraded)
	}
	if res.DegradedWrites == 0 {
		t.Error("no writes carried by the parity unit while degraded")
	}
	if res.RebuildPages == 0 {
		t.Error("parity rebuild migrated no pages")
	}
}

// TestMirrorRebuildAbortsOnDoubleFailure pins the abort path: when the
// rebuild's source copy dies too, the half-written spare is discarded, the
// slot stays degraded, and the abort is announced via telemetry.
func TestMirrorRebuildAbortsOnDoubleFailure(t *testing.T) {
	ring, err := telemetry.NewRingSink(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	dev := tinyDevice()
	dev.Tracer = telemetry.New(ring)
	a := newArray(t, Config{
		Devices: 2, StripePages: 8, Redundancy: RedundancyMirror, Spares: 1,
		RebuildPagesPerTick: 1, // crawl so the second failure lands mid-rebuild
		Device:              dev,
	})
	killMember(a, 1, 40)
	killMember(a, 0, 200)

	res, err := a.RunClosedLoop(stripedWrites(a, 6))
	if err != nil {
		t.Fatalf("RunClosedLoop: %v", err)
	}
	if len(res.Rebuilt) != 0 {
		t.Errorf("Rebuilt = %v after a double failure, want none", res.Rebuilt)
	}
	if len(res.Degraded) != 2 {
		t.Errorf("Degraded = %v, want both members", res.Degraded)
	}
	if res.SparesRemaining != 0 {
		t.Errorf("SparesRemaining = %d: the aborted spare must stay consumed", res.SparesRemaining)
	}
	aborts := 0
	for _, ev := range ring.Events() {
		if ev.Type == telemetry.EvRebuild && ev.Action == telemetry.ActionAbort {
			aborts++
		}
	}
	if aborts != 1 {
		t.Errorf("%d rebuild abort events, want 1", aborts)
	}
}

// TestMirrorRebuildWriteThroughTrim checks trims against a rebuilding slot
// reach the spare: after swap-in the replacement's shard reflects the trims
// (locals dropped) while untouched mirror-region locals stay mapped.
func TestMirrorRebuildWriteThroughTrim(t *testing.T) {
	a := newArray(t, Config{
		Devices: 2, StripePages: 8, Redundancy: RedundancyMirror, Spares: 1,
		RebuildPagesPerTick: 8, Device: tinyDevice(),
	})
	killMember(a, 1, 40)

	reqs := stripedWrites(a, 2)
	// Odd stripes live on member 1: trim them all while it rebuilds.
	for lpn := int64(8); lpn+8 <= a.UserPages(); lpn += 16 {
		reqs = append(reqs, trace.Request{
			Time: time.Millisecond, Kind: trace.Trim, LPN: lpn, Pages: 8,
		})
	}
	res, err := a.RunClosedLoop(reqs)
	if err != nil {
		t.Fatalf("RunClosedLoop: %v", err)
	}
	if !reflect.DeepEqual(res.Rebuilt, []int{1}) {
		t.Fatalf("Rebuilt = %v, want [1]", res.Rebuilt)
	}
	// Stripe 1's primary local on the rebuilt slot must be gone...
	if ppn := a.Device(1).FTL().MappedPPN(0); ppn != -1 {
		t.Errorf("trimmed local 0 still mapped (ppn %d) on the rebuilt slot", ppn)
	}
	// ...while member 0's stripe-0 mirror copy (not trimmed) survives.
	if a.Device(1).FTL().MappedPPN(a.perDevPages) == -1 {
		t.Error("mirror-region local lost across the rebuild")
	}
}

// TestRunClosedLoopValidatesRequests pins the request-validation error path.
func TestRunClosedLoopValidatesRequests(t *testing.T) {
	a := newArray(t, Config{Devices: 2, StripePages: 8, Device: tinyDevice()})
	if _, err := a.RunClosedLoop([]trace.Request{
		{Time: -1, Kind: trace.Read, LPN: 0, Pages: 1},
	}); err == nil {
		t.Error("negative-time request accepted")
	}
}

// TestMirrorCapacityHalves and parity's (N-1)/N check the capacity math.
func TestRedundancyCapacity(t *testing.T) {
	plain := newArray(t, Config{Devices: 4, StripePages: 8, Device: tinyDevice()})
	mirror := newArray(t, Config{
		Devices: 4, StripePages: 8, Redundancy: RedundancyMirror, Device: tinyDevice(),
	})
	parity := newArray(t, Config{
		Devices: 4, StripePages: 8, Redundancy: RedundancyParity, Device: tinyDevice(),
	})
	if mirror.UserPages() > plain.UserPages()/2 {
		t.Errorf("mirror capacity %d exceeds half of %d", mirror.UserPages(), plain.UserPages())
	}
	if parity.UserPages() > plain.UserPages()*3/4 {
		t.Errorf("parity capacity %d exceeds 3/4 of %d", parity.UserPages(), plain.UserPages())
	}
	if parity.UserPages() <= mirror.UserPages() {
		t.Errorf("parity capacity %d not above mirror's %d", parity.UserPages(), mirror.UserPages())
	}
}
