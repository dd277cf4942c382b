package array

import (
	"time"

	"jitgc/internal/metrics"
)

// Results merges the member devices' run records into one array-level
// record plus per-device spread statistics, the view Li/Lee/Lui's
// stochastic array model argues matters: array throughput is set by the
// aggregate, array tail latency by the worst member.
type Results struct {
	// Array is the merged record: latency percentiles are measured over
	// whole array requests (a request completes when its slowest striped
	// segment does), counters are sums, WAF is the aggregate ratio.
	Array metrics.Results
	// PerDevice holds each member's own record, indexed by device.
	PerDevice []metrics.Results

	// Devices, StripePages and Mode echo the configuration.
	Devices     int
	StripePages int64
	Mode        Mode

	// P999Latency is the 99.9th-percentile array request latency. Short
	// striped requests complete in a deterministic service time, so p99
	// often sits on that plateau in both coordination modes; the deeper
	// tail is where collections colliding with bursts surface.
	P999Latency time.Duration

	// WAFMin and WAFMax bound per-device write amplification; their gap is
	// the spread uncoordinated GC lets develop between members. Degraded
	// members and devices added mid-run are excluded — a dead member's
	// partial record trending toward zero is failure, not imbalance — but
	// stay visible in PerDevice.
	WAFMin, WAFMax float64
	// UtilMin and UtilMax bound per-device write utilization: each
	// healthy original member's share of host programs normalized to the
	// even-striping ideal, so 1.0 on every device means perfectly
	// balanced load. Excludes degraded and mid-run-added members like the
	// WAF spread.
	UtilMin, UtilMax float64

	// Degraded lists the members that failed a device operation mid-run
	// and were taken out of service without a completed rebuild (empty
	// for a healthy run), and FailedRequests counts the array requests
	// failed fast because they striped onto a degraded member no
	// redundancy could stand in for. Failed requests are excluded from
	// Array.Requests and every latency statistic: they never reached a
	// device, so timing them would dilute the served-request tail.
	Degraded       []int
	FailedRequests int64
	// TornStripes counts partial stripe mutations: a segment failed after
	// earlier segments of the same request had already landed on the
	// survivors. Redundancy prevents tears (the request is served
	// instead); without it the count is the number of stripes left
	// host-visible inconsistent until rewritten.
	TornStripes int64

	// Redundancy echoes the stripe protection scheme.
	Redundancy Redundancy
	// DegradedReads and DegradedWrites count extents served from
	// redundancy in a dead primary's stead (mirror reads, parity
	// reconstructions, redundancy-carried writes).
	DegradedReads, DegradedWrites int64

	// Rebuilt lists slots whose degraded member was replaced by a fully
	// rebuilt spare; SparesRemaining is the standby pool left at the end.
	// RebuildPages counts pages migrated onto spares (copies plus host
	// write-throughs) and RebuildTime sums attach-to-swap durations.
	// ReplacedDevices archives the swapped-out members' records (their
	// counters stay in the Array aggregate; PerDevice shows the
	// replacement at the slot).
	Rebuilt         []int
	SparesRemaining int
	RebuildPages    int64
	RebuildTime     time.Duration
	ReplacedDevices []metrics.Results

	// GrownDevices counts devices added by online rebalancing;
	// RebalancedStripes the stripes the reshape relocated into the
	// widened layout, over RebalanceTime.
	GrownDevices      int
	RebalancedStripes int64
	RebalanceTime     time.Duration

	// GCGranted, GCDenied, GCBoosted and GCBypassed count the
	// coordinator's token decisions (all zero in independent mode):
	// grants include critical bypasses — GCBypassed counts those
	// separately so grant-rate analysis can split steady-state token
	// pressure from crisis response — denials are mid-burst deferrals to
	// the next inter-burst gap, boosts are gap grants topped up beyond
	// the device's own ask to pre-collect for the coming burst.
	GCGranted, GCDenied, GCBoosted, GCBypassed int64
	// ResolvedCap is the token width in effect at the last coordinated
	// interval: the configured MaxConcurrentGC, or the burn-driven width
	// when the cap is adaptive.
	ResolvedCap int

	// Timelines holds each member device's per-interval state samples when
	// Config.Device.RecordTimeline is set (nil otherwise), indexed by
	// device; MergedTimeline is the per-tick array-level aggregate (see
	// metrics.MergeTimelines for the merge semantics).
	Timelines      [][]metrics.TimelinePoint
	MergedTimeline []metrics.TimelinePoint
}

// WAFSpread returns WAFMax − WAFMin.
func (r Results) WAFSpread() float64 { return r.WAFMax - r.WAFMin }

// Results assembles the merged record of the run so far; an external
// sim.Drive caller collects it after the final event.
func (a *Array) Results() Results {
	n := len(a.devs)
	res := Results{
		PerDevice:   make([]metrics.Results, n),
		Devices:     n,
		StripePages: a.cfg.StripePages,
		Mode:        a.cfg.Mode,
		P999Latency: a.lat.Percentile(99.9),
		GCGranted:   a.granted,
		GCDenied:    a.denied,
		GCBoosted:   a.boosted,
		GCBypassed:  a.bypassed,
		ResolvedCap: a.capNow,

		FailedRequests: a.failed,
		TornStripes:    a.torn,

		Redundancy:     a.cfg.Redundancy,
		DegradedReads:  a.degradedReads,
		DegradedWrites: a.degradedWrites,

		Rebuilt:         append([]int(nil), a.rebuilt...),
		SparesRemaining: len(a.spares),
		RebuildPages:    a.rebuildPages,
		RebuildTime:     a.rebuildTime,
		ReplacedDevices: append([]metrics.Results(nil), a.replaced...),

		RebalancedStripes: a.rebalanced,
		RebalanceTime:     a.rebalanceTime,
	}
	if a.grown {
		res.GrownDevices = n - a.cfg.Devices
	}
	for i, err := range a.degraded {
		if err != nil {
			res.Degraded = append(res.Degraded, i)
		}
	}

	agg := metrics.Results{
		Policy:      a.devs[0].Policy().Name(),
		Requests:    a.requests,
		SimTime:     a.opsEnd,
		MeanLatency: a.lat.Mean(),
		P99Latency:  a.lat.Percentile(99),
		MaxLatency:  a.lat.Max(),
		// The array recorder, not the members', produced the percentiles.
		StreamingLatency: a.lat.Streaming(),
	}
	var selections, filtered int64
	var accuracy float64
	predictive := 0
	// Spread statistics cover only healthy original members: a degraded
	// member's partial record trending toward zero is failure, not load
	// imbalance, and a device added mid-run has not seen the whole stream.
	included := 0
	var includedPrograms int64
	first := true
	for i, d := range a.devs {
		r := d.Results()
		res.PerDevice[i] = r
		if r.SimTime > agg.SimTime {
			agg.SimTime = r.SimTime
		}
		accumulate(&agg, r)
		st := d.FTL().Stats()
		selections += st.VictimSelections
		filtered += st.FilteredSelections
		if r.Predictive {
			predictive++
			accuracy += r.PredictionAccuracy
		}
		if i == 0 || r.MinErase < agg.MinErase {
			agg.MinErase = r.MinErase
		}
		if r.MaxErase > agg.MaxErase {
			agg.MaxErase = r.MaxErase
		}
		if a.degraded[i] != nil || i >= a.cfg.Devices {
			continue
		}
		included++
		includedPrograms += r.HostPrograms
		if first || r.WAF < res.WAFMin {
			res.WAFMin = r.WAF
		}
		if r.WAF > res.WAFMax {
			res.WAFMax = r.WAF
		}
		first = false
	}
	// Members swapped out after a completed rebuild did real work before
	// they died; their counters stay in the aggregate.
	for _, r := range a.replaced {
		accumulate(&agg, r)
	}
	agg.WAF = 1
	if agg.HostPrograms > 0 {
		agg.WAF = float64(agg.HostPrograms+agg.GCMigrations) / float64(agg.HostPrograms)
	}
	if a.opsEnd > 0 {
		agg.IOPS = float64(a.requests) / a.opsEnd.Seconds()
	}
	if agg.SimTime > 0 {
		agg.SustainedIOPS = float64(a.requests) / agg.SimTime.Seconds()
	}
	if a.cfg.Device.RecordTimeline {
		res.Timelines = make([][]metrics.TimelinePoint, n)
		for i, d := range a.devs {
			res.Timelines[i] = d.Timeline()
		}
		res.MergedTimeline = metrics.MergeTimelines(res.Timelines)
	}
	if selections > 0 {
		agg.FilteredVictimPct = 100 * float64(filtered) / float64(selections)
	}
	if predictive == n {
		agg.Predictive = true
		agg.PredictionAccuracy = accuracy / float64(n)
	}

	res.UtilMin, res.UtilMax = 1, 1
	if includedPrograms > 0 {
		firstU := true
		for i, r := range res.PerDevice {
			if a.degraded[i] != nil || i >= a.cfg.Devices {
				continue
			}
			u := float64(r.HostPrograms) * float64(included) / float64(includedPrograms)
			if firstU || u < res.UtilMin {
				res.UtilMin = u
			}
			if firstU || u > res.UtilMax {
				res.UtilMax = u
			}
			firstU = false
		}
	}

	res.Array = agg
	return res
}

// accumulate folds one member record's counters into the array aggregate.
func accumulate(agg *metrics.Results, r metrics.Results) {
	agg.HostPrograms += r.HostPrograms
	agg.GCMigrations += r.GCMigrations
	agg.WastedMigrations += r.WastedMigrations
	agg.Erases += r.Erases
	agg.FGCInvocations += r.FGCInvocations
	agg.BGCCollections += r.BGCCollections
	agg.TrimmedPages += r.TrimmedPages
	agg.MappedPages += r.MappedPages
	agg.CacheReadHits += r.CacheReadHits
	agg.BufferedPages += r.BufferedPages
	agg.DirectPages += r.DirectPages
	agg.InjectedFaults += r.InjectedFaults
	agg.ProgramFaults += r.ProgramFaults
	agg.EraseFaults += r.EraseFaults
	agg.ReadRetries += r.ReadRetries
	agg.UnrecoverableReads += r.UnrecoverableReads
	agg.RetiredBlocks += r.RetiredBlocks
}
