package predictor

import (
	"math"
	"testing"
)

func TestAccuracyPerfectForecast(t *testing.T) {
	a := NewAccuracyTracker(2)
	a.Tick() // interval 0 closes empty
	a.RecordPrediction(100)
	a.AddActual(0)
	a.Tick() // interval 1: forecast covers intervals 2..3
	a.AddActual(60)
	a.Tick()
	a.AddActual(40)
	a.Tick()
	if got := a.Mean(); got != 1 {
		t.Errorf("perfect forecast accuracy = %v, want 1", got)
	}
	if a.Count() != 1 {
		t.Errorf("scorable count = %d, want 1", a.Count())
	}
}

func TestAccuracyHalf(t *testing.T) {
	a := NewAccuracyTracker(1)
	a.RecordPrediction(100)
	a.AddActual(999) // belongs to the recording interval, not the horizon
	a.Tick()
	a.AddActual(50) // the horizon interval
	a.Tick()
	if got := a.Mean(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("accuracy = %v, want 0.5", got)
	}
}

func TestAccuracyUnscoredUntilHorizonElapses(t *testing.T) {
	a := NewAccuracyTracker(3)
	a.RecordPrediction(100)
	a.Tick()
	if a.Count() != 0 {
		t.Error("forecast scored before horizon elapsed")
	}
	if a.Mean() != 1 {
		t.Error("Mean with no scorable forecasts should be 1")
	}
}

func TestAccuracyBothZeroIsPerfect(t *testing.T) {
	a := NewAccuracyTracker(1)
	a.RecordPrediction(0)
	a.Tick()
	a.AddActual(0)
	a.Tick()
	if got := a.Mean(); got != 1 {
		t.Errorf("0-vs-0 accuracy = %v, want 1", got)
	}
}

func TestAccuracyOverAndUnderPredictionSymmetric(t *testing.T) {
	over := NewAccuracyTracker(1)
	over.RecordPrediction(200)
	over.Tick()
	over.AddActual(100)
	over.Tick()

	under := NewAccuracyTracker(1)
	under.RecordPrediction(100)
	under.Tick()
	under.AddActual(200)
	under.Tick()

	if math.Abs(over.Mean()-under.Mean()) > 1e-9 {
		t.Errorf("asymmetric: over %v vs under %v", over.Mean(), under.Mean())
	}
	if math.Abs(over.Mean()-0.5) > 1e-9 {
		t.Errorf("2× error accuracy = %v, want 0.5", over.Mean())
	}
}

func TestAccuracyMinimumHorizon(t *testing.T) {
	a := NewAccuracyTracker(0) // clamps to 1: scored after one interval
	a.RecordPrediction(100)
	a.Tick()
	if a.Count() != 0 {
		t.Errorf("scored before the horizon elapsed")
	}
	a.AddActual(100)
	a.Tick()
	if a.Count() != 1 || a.Mean() != 1 {
		t.Errorf("one-interval horizon: count %d, mean %v, want 1 and 1", a.Count(), a.Mean())
	}
}

func TestElapsed(t *testing.T) {
	a := NewAccuracyTracker(1)
	a.Tick()
	a.Tick()
	if a.Elapsed() != 2 {
		t.Errorf("elapsed = %d", a.Elapsed())
	}
}
