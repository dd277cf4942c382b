package predictor

// AccuracyTracker measures prediction accuracy the way the paper's Table 2
// reports it: at each write-back interval a predictor forecasts the write
// volume over the next τ_expire horizon; once that horizon has elapsed the
// forecast is scored against the volume actually written, and the run's
// accuracy is the mean per-forecast score
//
//	acc = 1 − |predicted − actual| / max(predicted, actual)
//
// (1.0 when both are zero).
type AccuracyTracker struct {
	horizon int // intervals per forecast (Nwb)
	preds   []predRecord
	actual  []int64 // bytes written per elapsed interval
	current int64   // bytes in the interval being accumulated
}

type predRecord struct {
	interval int // index of the interval at whose start it was made
	bytes    int64
}

// NewAccuracyTracker builds a tracker for forecasts spanning horizon
// intervals.
func NewAccuracyTracker(horizon int) *AccuracyTracker {
	if horizon < 1 {
		horizon = 1
	}
	return &AccuracyTracker{horizon: horizon}
}

// RecordPrediction logs a forecast made at the start of the current
// interval.
func (a *AccuracyTracker) RecordPrediction(bytes int64) {
	a.preds = append(a.preds, predRecord{interval: len(a.actual), bytes: bytes})
}

// AddActual accumulates bytes actually written during the current interval.
func (a *AccuracyTracker) AddActual(bytes int64) { a.current += bytes }

// Tick closes the current interval.
func (a *AccuracyTracker) Tick() {
	a.actual = append(a.actual, a.current)
	a.current = 0
}

// Mean returns the mean accuracy over all forecasts whose horizon has fully
// elapsed, in [0,1]. With no scorable forecasts it returns 1.
func (a *AccuracyTracker) Mean() float64 {
	var sum float64
	var n int
	for _, p := range a.preds {
		// A forecast made at the start of interval k covers the paper's
		// I¹..I^Nwb — the horizon intervals *after* k.
		start, end := p.interval+1, p.interval+1+a.horizon
		if end > len(a.actual) {
			continue // horizon not yet elapsed
		}
		var act int64
		for i := start; i < end; i++ {
			act += a.actual[i]
		}
		sum += score(p.bytes, act)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// Count returns the number of scorable forecasts.
func (a *AccuracyTracker) Count() int {
	n := 0
	for _, p := range a.preds {
		if p.interval+1+a.horizon <= len(a.actual) {
			n++
		}
	}
	return n
}

func score(pred, act int64) float64 {
	if pred == act {
		return 1
	}
	maxv := pred
	if act > maxv {
		maxv = act
	}
	diff := pred - act
	if diff < 0 {
		diff = -diff
	}
	return 1 - float64(diff)/float64(maxv)
}

// Elapsed returns the number of closed intervals.
func (a *AccuracyTracker) Elapsed() int { return len(a.actual) }

// Actuals returns a copy of the per-interval actual write volumes recorded
// so far (bytes per closed interval). Feeding this series to a later run's
// oracle policy gives it this run's demand, which is the later run's own
// only while the two runs' timing agrees.
func (a *AccuracyTracker) Actuals() []int64 {
	out := make([]int64, len(a.actual))
	copy(out, a.actual)
	return out
}
