package array

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"jitgc/internal/metrics"
	"jitgc/internal/telemetry"
	"jitgc/internal/trace"
)

// TestArrayTraceEvents is the acceptance check for the 2-device coordinated
// trace: one run must yield request, flush-decision, GC, and token events,
// with per-member device tags from both members.
func TestArrayTraceEvents(t *testing.T) {
	ring, err := telemetry.NewRingSink(1 << 18)
	if err != nil {
		t.Fatal(err)
	}
	dev := tinyDevice()
	dev.PreconditionPages = 256
	dev.Tracer = telemetry.New(ring)
	a := newArray(t, Config{
		Devices: 2, StripePages: 4, Mode: Coordinated, MaxConcurrentGC: 1,
		Device: dev,
	})
	res, err := a.RunClosedLoop(stream(2000, a.UserPages()))
	if err != nil {
		t.Fatal(err)
	}

	counts := map[telemetry.EventType]int{}
	devsSeen := map[int]bool{}
	tokens := 0
	for _, ev := range ring.Events() {
		counts[ev.Type]++
		if ev.Type == telemetry.EvRequest {
			devsSeen[ev.Dev] = true
		}
		if ev.Type == telemetry.EvToken {
			tokens++
			switch ev.Action {
			case telemetry.ActionGrant, telemetry.ActionDeny, telemetry.ActionBoost, telemetry.ActionBypass:
			default:
				t.Fatalf("unknown token action %q", ev.Action)
			}
		}
	}
	for _, ty := range []telemetry.EventType{
		telemetry.EvRequest, telemetry.EvFlushDecision, telemetry.EvSnapshot,
	} {
		if counts[ty] == 0 {
			t.Errorf("no %s events", ty)
		}
	}
	if !devsSeen[0] || !devsSeen[1] {
		t.Errorf("request events tagged for devices %v, want both members", devsSeen)
	}
	if wantTok := res.GCGranted + res.GCDenied + res.GCBoosted; wantTok > 0 && tokens == 0 {
		t.Errorf("coordinator made %d decisions but emitted no token events", wantTok)
	}
	if res.Array.BGCCollections > 0 && counts[telemetry.EvGCStart] == 0 {
		t.Error("collections ran but no gc_start events")
	}
}

// TestArrayTimelines checks the per-member and merged timelines a 2-device
// run's events rebuild: both members report every array tick, and each
// merged point sums their capacities and averages their WAF.
func TestArrayTimelines(t *testing.T) {
	sink := &metrics.TimelineSink{}
	dev := tinyDevice()
	dev.PreconditionPages = 256
	dev.Tracer = telemetry.New(sink)
	a := newArray(t, Config{Devices: 2, StripePages: 4, Device: dev})
	if _, err := a.RunClosedLoop(stream(1200, a.UserPages())); err != nil {
		t.Fatal(err)
	}
	per := sink.PerDevice()
	if len(per) != 2 || len(per[0]) == 0 || len(per[0]) != len(per[1]) {
		t.Fatalf("members reported %d and %d ticks (%d devices), want the same non-zero count from both",
			len(per[0]), len(per[1]), len(per))
	}
	m := sink.Merged()
	if len(m) != len(per[0]) {
		t.Fatalf("merged length %d, want %d", len(m), len(per[0]))
	}
	for i, p := range m {
		p0, p1 := per[0][i], per[1][i]
		if p.T != p0.T || p.T != p1.T || p.FreeBytes != p0.FreeBytes+p1.FreeBytes || p.WAF != (p0.WAF+p1.WAF)/2 {
			t.Fatalf("merged tick %d = %+v from members %+v and %+v", i, p, p0, p1)
		}
	}
}

// TestArrayTimelinesSurviveMemberDeath kills member 1 of a mirrored pair
// after preconditioning, with and without a spare to rebuild onto. The
// merged timeline must still hold one point per array tick through the
// last, in time order. Each point sums the devices that reported at its
// tick (the survivor, the dead member until it died, the spare once
// attached) and averages their WAF and idle fraction.
func TestArrayTimelinesSurviveMemberDeath(t *testing.T) {
	for _, spares := range []int{0, 1} {
		t.Run(fmt.Sprintf("spares=%d", spares), func(t *testing.T) {
			sink := &metrics.TimelineSink{}
			dev := tinyDevice()
			dev.PreconditionPages = 128
			dev.Tracer = telemetry.New(sink)
			a := newArray(t, Config{
				Devices: 2, StripePages: 8, Redundancy: RedundancyMirror, Spares: spares,
				Device: dev,
			})
			if err := a.Begin(); err != nil {
				t.Fatal(err)
			}
			killMember(a, 1, 656)
			reqs := make([]trace.Request, 3000)
			for i := range reqs {
				reqs[i] = trace.Request{Time: 15 * time.Millisecond, Kind: trace.DirectWrite,
					LPN: int64(i*7) % a.UserPages(), Pages: 1}
			}
			res, err := a.RunClosedLoop(reqs)
			if err != nil {
				t.Fatal(err)
			}
			per := sink.PerDevice()
			if res.FailedRequests != 0 || len(res.Rebuilt) != spares || len(per[1]) >= len(per[0]) || (len(per[2]) > 0) != (spares > 0) {
				t.Fatalf("%d failed requests, slots %v rebuilt, ticks from devices 0/1/2 %d/%d/%d: want member 1 to die, the mirror to absorb it, and the spare to report",
					res.FailedRequests, res.Rebuilt, len(per[0]), len(per[1]), len(per[2]))
			}

			var last time.Duration
			for _, tl := range per {
				last = max(last, tl[len(tl)-1].T)
			}
			period := dev.Cache.FlusherPeriod
			m := sink.Merged()
			if want := int(last / period); len(m) != want {
				t.Fatalf("merged timeline has %d points, want one per tick through %v: %d", len(m), last, want)
			}
			for i, p := range m {
				if p.T != time.Duration(i+1)*period {
					t.Fatalf("merged point %d at %v, want %v", i, p.T, time.Duration(i+1)*period)
				}
				want := metrics.TimelinePoint{T: p.T}
				n := 0
				for _, d := range slices.Sorted(maps.Keys(per)) {
					for _, q := range per[d] {
						if q.T != p.T {
							continue
						}
						n++
						want.FreeBytes += q.FreeBytes
						want.DirtyPages += q.DirtyPages
						want.WAF += q.WAF
						want.FGCInvocations += q.FGCInvocations
						want.BGCCollections += q.BGCCollections
						want.ReclaimBytes += q.ReclaimBytes
						want.PredictedBytes += q.PredictedBytes
						want.IdleFraction += q.IdleFraction
					}
				}
				want.WAF /= float64(n)
				want.IdleFraction /= float64(n)
				if p != want {
					t.Fatalf("merged point %d = %+v, want the %d reporting devices' sum %+v", i, p, n, want)
				}
			}
		})
	}
}

// TestArrayStreamingLatency checks the array-level recorder follows the
// member streaming setting and stays mergeable.
func TestArrayStreamingLatency(t *testing.T) {
	dev := tinyDevice()
	dev.PreconditionPages = 256
	dev.StreamingLatency = true
	a := newArray(t, Config{Devices: 2, StripePages: 4, Device: dev})
	res, err := a.RunClosedLoop(stream(800, a.UserPages()))
	if err != nil {
		t.Fatal(err)
	}
	if !a.lat.Streaming() {
		t.Fatal("array recorder not in streaming mode")
	}
	if res.Array.P99Latency <= 0 || res.P999Latency < res.Array.P99Latency {
		t.Errorf("latency percentiles inconsistent: p99=%v p99.9=%v",
			res.Array.P99Latency, res.P999Latency)
	}
}
