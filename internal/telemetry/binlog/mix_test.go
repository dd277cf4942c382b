package binlog

import (
	"math/rand"
	"time"

	"jitgc/internal/telemetry"
)

// recordedMix synthesizes a deterministic event stream with the shape of a
// recorded `jitgcsim -ops 60000 -trace-events` run (YCSB, JIT-GC policy):
// 95.8% request completions, GC episodes (gc_start / gc_end / erase
// triplets) at 1.4% each, and snapshot/flush-decision ticks at the
// write-back cadence. Value distributions mirror the recording too —
// latencies drawn from the latency model's ~20 quantized values (85%
// buffered-write hits at 2µs), LPNs uniform over the 30k-page working set,
// 1–8 page transfers, exponential arrival gaps with a ~300µs median — plus
// a 0.3% sprinkle of fault/retry/retirement/tenant events (the mix of a
// fault-injection run) so every column sees traffic. The same mix feeds
// the round-trip tests, the 10×-smaller-than-JSONL test and the
// JSONL-vs-binlog benchmarks, so the format's size and speed are measured
// on a realistic field population, not a best case.
func recordedMix(n int, seed int64) []telemetry.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]telemetry.Event, 0, n)
	t := time.Duration(0)
	// Latency model output observed in the recording: value → weight.
	latencies := [...]time.Duration{
		2_000, 2_000, 2_000, 2_000, 2_000, 2_000, 2_000, 2_000, 2_000, 2_000, 2_000,
		35_000, 35_000, 70_000, 105_000, 140_000,
		1_537_500, 2_050_000, 2_562_500, 3_075_000, 3_587_500, 4_100_000,
	}
	kinds := [...]string{"W", "W", "W", "W", "R", "R", "R", "D"}
	actions := [...]string{telemetry.ActionGrant, telemetry.ActionDeny, telemetry.ActionBoost, telemetry.ActionBypass}
	classes := [...]string{"gold", "silver", "bronze"}
	var (
		waf          = 1.0
		fgc, bgc     int64
		reqs, erases int64
		freeBytes    = int64(200 << 20)
		victim       int
	)
	expGap := func(mean time.Duration) time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(mean))
	}
	for len(evs) < n {
		t += expGap(440 * time.Microsecond)
		switch p := rng.Float64(); {
		case p < 0.958: // request completion
			reqs++
			evs = append(evs, telemetry.Event{
				Type: telemetry.EvRequest, T: t,
				Kind:    kinds[rng.Intn(len(kinds))],
				LPN:     rng.Int63n(30622),
				Pages:   1 + rng.Intn(8),
				Latency: latencies[rng.Intn(len(latencies))],
			})
		case p < 0.986: // one GC episode: gc_start, gc_end, erase
			fg := rng.Intn(8) == 0
			if fg {
				fgc++
			} else {
				bgc++
			}
			victim = rng.Intn(2048)
			valid := rng.Intn(64)
			evs = append(evs, telemetry.Event{
				Type: telemetry.EvGCStart, T: t,
				Foreground: fg, Victim: victim,
				ValidPages: valid, SIPPages: rng.Intn(valid + 1),
			})
			t += expGap(80 * time.Microsecond)
			evs = append(evs, telemetry.Event{
				Type: telemetry.EvGCEnd, T: t,
				Foreground: fg, Victim: victim,
				FreedPages: int64(256 - valid),
				Elapsed:    time.Duration(valid) * 105_000,
			})
			t += expGap(40 * time.Microsecond)
			erases++
			evs = append(evs, telemetry.Event{
				Type: telemetry.EvErase, T: t,
				Victim: victim, EraseCount: erases/64 + 1,
				Elapsed: 2_000_000,
			})
		case p < 0.9925: // write-back tick: flush decision + snapshot
			freeBytes += int64(rng.Intn(1<<22)) - 1<<21
			evs = append(evs, telemetry.Event{
				Type: telemetry.EvFlushDecision, T: t,
				FreeBytes:      freeBytes,
				ReclaimBytes:   int64(rng.Intn(1 << 24)),
				PredictedBytes: int64(rng.Intn(1 << 24)),
				IdleFraction:   float64(rng.Intn(1000)) / 1000,
			})
			waf += float64(rng.Intn(20)) / 1000
			evs = append(evs, telemetry.Event{
				Type: telemetry.EvSnapshot, T: t,
				FreeBytes: freeBytes, DirtyPages: rng.Intn(4096),
				WAF: waf, FGCInvocations: fgc, BGCCollections: bgc, Requests: reqs,
			})
		case p < 0.996: // array token hand-off (multi-device runs)
			evs = append(evs, telemetry.Event{
				Type: telemetry.EvToken, T: t, Dev: rng.Intn(4),
				Action:       actions[rng.Intn(len(actions))],
				ReclaimBytes: int64(rng.Intn(1 << 24)), FreeBytes: freeBytes,
			})
		default: // rare events, rotated so each type appears in long mixes
			switch rng.Intn(5) {
			case 0:
				evs = append(evs, telemetry.Event{
					Type: telemetry.EvFault, T: t,
					Op: "program", Victim: rng.Intn(2048), Page: rng.Intn(256),
					LPN: -1,
				})
			case 1:
				evs = append(evs, telemetry.Event{
					Type: telemetry.EvReadRetry, T: t,
					Victim: rng.Intn(2048), Page: rng.Intn(256),
					LPN: rng.Int63n(30622), Attempts: 1 + rng.Intn(7),
					Recovered: rng.Intn(8) != 0,
				})
			case 2:
				evs = append(evs, telemetry.Event{
					Type: telemetry.EvBlockRetired, T: t,
					Victim: rng.Intn(2048), Reason: "program", EraseCount: erases/64 + 1,
				})
			case 3:
				evs = append(evs, telemetry.Event{
					Type: telemetry.EvDeviceDegraded, T: t, Dev: rng.Intn(4),
					Reason: "ftl dead",
				})
			default:
				evs = append(evs, telemetry.Event{
					Type: telemetry.EvTenantSummary, T: t,
					Tenant: rng.Intn(8), Class: classes[rng.Intn(len(classes))],
					Requests: reqs / 8, Dropped: int64(rng.Intn(100)),
					Violations: int64(rng.Intn(50)), Latency: time.Duration(rng.Intn(10_000_000)),
				})
			}
		}
	}
	return evs[:n]
}
