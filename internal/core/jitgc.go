package core

import (
	"time"

	"jitgc/internal/pagecache"
	"jitgc/internal/predictor"
)

// JITGC is the paper's just-in-time BGC manager (§3.3). At the start of
// each write-back interval I_wb = [s, s+p) it receives the predicted
// buffered and direct demand sequences and the device's free capacity, and
// invokes background GC only when skipping it now would force GC time to
// exceed the idle time remaining in the horizon:
//
//	C_req(t) = Σ_{i=1..Nwb} (D^i_buf(t) + D^i_dir(t))
//	if C_free(t) ≥ C_req(t):        no BGC
//	else:
//	    T_w    = C_req / Bw
//	    T_idle = τ_expire − T_w
//	    T_gc   = (C_req − C_free) / Bgc
//	    if T_idle ≥ T_gc:           no BGC yet (stay lazy)
//	    else:                       reclaim D_reclaim = (T_gc − T_idle)·Bgc
//
// The reclaim amount is additionally capped at the actual shortfall
// C_req − C_free, since reclaiming more than the deficit cannot be needed.
type JITGC struct {
	buffered *predictor.Buffered
	direct   *predictor.CDHTracker
	expire   time.Duration
	interval time.Duration
	// DisableSIP suppresses SIP-list forwarding (ablation knob: JIT timing
	// without victim filtering).
	DisableSIP bool

	demand []int64 // OnInterval's combined sequence, reused every tick
}

// JITOptions tunes the JIT-GC manager.
type JITOptions struct {
	// Percentile is the direct-write CDH percentile (default 0.80).
	Percentile float64
	// CDHBinWidth is the histogram bin width in bytes (default 1 MiB).
	CDHBinWidth float64
	// CDHBins is the histogram bin count (default 512).
	CDHBins int
	// RecentWindows bounds CDH history (default 64; 0 = unbounded).
	RecentWindows int
	// StrictFlushPrediction applies the un-relaxed τ_flush condition in
	// the buffered predictor (ablation knob).
	StrictFlushPrediction bool
}

func (o *JITOptions) setDefaults() {
	if o.Percentile == 0 {
		o.Percentile = predictor.DefaultPercentile
	}
	if o.CDHBinWidth == 0 {
		o.CDHBinWidth = 1 << 20
	}
	if o.CDHBins == 0 {
		o.CDHBins = 512
	}
	if o.RecentWindows == 0 {
		o.RecentWindows = 64
	}
}

// NewJITGC builds a JIT-GC manager over the host page cache. The returned
// manager must be fed direct-write traffic via ObserveDirect and ticked by
// the simulator's interval loop (OnInterval does both prediction and
// scheduling).
func NewJITGC(cache *pagecache.Cache, opts JITOptions) (*JITGC, error) {
	opts.setDefaults()
	buf := predictor.NewBuffered(cache)
	buf.Strict = opts.StrictFlushPrediction
	wb := buf.WriteBack()
	dir, err := predictor.NewCDHTracker(wb, opts.Percentile, opts.CDHBinWidth, opts.CDHBins, opts.RecentWindows)
	if err != nil {
		return nil, err
	}
	return &JITGC{buffered: buf, direct: dir, expire: wb.Expire, interval: wb.Period}, nil
}

// Name implements Policy.
func (j *JITGC) Name() string { return "JIT-GC" }

// ObserveDirect records direct-write traffic (bytes) for the CDH predictor.
// The simulator calls it as direct writes reach the device.
func (j *JITGC) ObserveDirect(bytes int64) { j.direct.Observe(bytes) }

// Predict exposes the combined prediction at time now (used by tests and
// by OnInterval). It shares the predictors' buffers: valid only until the
// next Predict or OnInterval call. Its SIP change is relative to the
// previous call's, so a caller feeding an FTL must not skip one.
func (j *JITGC) Predict(now time.Duration) predictor.Prediction {
	dbuf, sip := j.buffered.Predict(now)
	return predictor.Prediction{Buffered: dbuf, Direct: j.direct.Predict(), SIP: sip}
}

// OnInterval implements Policy.
func (j *JITGC) OnInterval(now time.Duration, view DeviceView) Decision {
	j.direct.Tick()
	p := j.Predict(now)

	demand := j.demand[:0]
	for i, d := range p.Buffered {
		if i < len(p.Direct) {
			d += p.Direct[i]
		}
		demand = append(demand, d)
	}
	j.demand = demand
	d := Decision{PredictedBytes: p.Total()}
	if !j.DisableSIP {
		d.SIP = p.SIP
	}

	d.ReclaimBytes = Schedule(demand, view.FreeBytes(), j.interval,
		view.WriteBandwidth(), view.GCBandwidth(), view.IdleFraction())

	// Buffered flushes are point events whose timing the predictor knows
	// exactly, and host bursts can occupy the device for most of an
	// interval — so the flush wave due in two ticks is also treated as a
	// hard deadline. Direct demand stays rate-based: the next tick's k=0
	// check covers it.
	if len(p.Buffered) >= 2 {
		hard := p.Buffered[0] + p.Buffered[1]
		if len(p.Direct) > 0 {
			hard += p.Direct[0]
		}
		if r := hard - view.FreeBytes(); r > d.ReclaimBytes {
			d.ReclaimBytes = r
		}
	}
	return d
}

// Schedule is the pure just-in-time scheduling rule. demand holds the
// predicted per-interval write volumes D¹..D^Nwb (bytes), cfree is C_free,
// period is the write-back interval p, bw/bgc are the bandwidth estimates,
// and idleFrac is the device's recent idle fraction.
//
// The paper's aggregate rule — invoke BGC only when the idle time left in
// the horizon no longer covers the required GC time, and then reclaim
// (T_gc − T_idle)·Bgc — is the deadline check for the *last* interval of
// the horizon with an idealized device (idleFrac = 1: every second not
// spent writing the predicted demand is idle). Front-loaded demand can hit
// its deadline earlier than the aggregate admits, and a device busy with
// reads or foreground stalls has less idle than the ideal, so Schedule
// evaluates the same check at every prefix deadline k with the horizon
// discounted by idleFrac: the demand due by tick k must be covered by
// C_free plus what background GC can still reclaim in the usable idle time
// before that tick. With uniform demand, idleFrac = 1, and a slack device,
// every prefix is lazy except the last and Schedule returns exactly the
// paper's D_reclaim. The result is capped at the total deficit
// C_req − C_free.
func Schedule(demand []int64, cfree int64, period time.Duration, bw, bgc, idleFrac float64) int64 {
	var creq int64
	for _, d := range demand {
		creq += d
	}
	if creq <= cfree {
		return 0
	}
	deficit := creq - cfree
	if bw <= 0 || bgc <= 0 {
		return deficit // no bandwidth knowledge: reclaim the deficit now
	}
	if idleFrac < 0 {
		idleFrac = 0
	}
	if idleFrac > 1 {
		idleFrac = 1
	}

	var reclaim, cum int64
	for k, d := range demand {
		cum += d
		if cum <= cfree {
			continue
		}
		if k == 0 {
			// Demand due at the very next tick: no later scheduling
			// decision can cover it, so request the full shortfall now.
			reclaim = cum - cfree
			continue
		}
		// Usable idle time for BGC before the tick that delivers demand
		// k: the prefix horizon discounted by the device's recent idle
		// share, minus the time the device will spend writing the prefix
		// demand itself. The paper's T_idle = τ_expire − C_req/Bw is this
		// expression at k = Nwb−1 with idleFrac = 1.
		//
		// The discount applies only to near deadlines (≤ 3 intervals):
		// those must fit into idle windows that exist now, while far
		// deadlines still have several future scheduling decisions ahead
		// of them — discounting those too would hold a full-horizon
		// reserve permanently under sustained load, which is exactly the
		// premature over-reservation JIT-GC exists to avoid.
		frac := idleFrac
		if k > 3 {
			frac = 1
		}
		horizon := time.Duration(k+1) * period
		tidle := frac*horizon.Seconds() - float64(cum)/bw
		if tidle < 0 {
			tidle = 0
		}
		tgc := float64(cum-cfree) / bgc
		if tgc > tidle {
			if r := int64((tgc - tidle) * bgc); r > reclaim {
				reclaim = r
			}
		}
	}
	if reclaim > deficit {
		reclaim = deficit
	}
	return reclaim
}
