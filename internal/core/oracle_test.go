package core

import (
	"testing"
	"time"

	"jitgc/internal/predictor"
	"jitgc/internal/trace"
)

func oracleWB() predictor.WriteBack {
	return predictor.WriteBack{Period: 5 * time.Second, Expire: 30 * time.Second}
}

func TestNewOracleValidation(t *testing.T) {
	if _, err := NewOracle(nil, oracleWB()); err == nil {
		t.Error("empty future accepted")
	}
	if _, err := NewOracle([]int64{1}, predictor.WriteBack{}); err == nil {
		t.Error("invalid write-back accepted")
	}
}

func TestOracleDoesNotAliasInput(t *testing.T) {
	future := []int64{1, 2, 3}
	o, err := NewOracle(future, oracleWB())
	if err != nil {
		t.Fatal(err)
	}
	future[0] = 99
	if o.future[0] != 1 {
		t.Error("oracle aliases the caller's slice")
	}
}

func TestOracleForecastsRecordedFuture(t *testing.T) {
	// Intervals: 0 then a 50 MB spike at interval 3.
	future := []int64{0, 0, 0, 50 * mb, 0, 0, 0, 0}
	o, err := NewOracle(future, oracleWB())
	if err != nil {
		t.Fatal(err)
	}
	view := fakeView{free: 10 * mb, bw: 40 * mb, bgc: 10 * mb, idleFrac: 1}

	// At interval 0 the forecast covers intervals 1..6, including the spike.
	dec := o.OnInterval(0, view)
	if dec.PredictedBytes != 50*mb {
		t.Errorf("forecast at interval 0 = %d, want the 50 MB spike", dec.PredictedBytes)
	}
	// At interval 2 the spike is next-interval demand: the shortfall is a
	// hard deadline.
	o.OnInterval(5*time.Second, view)
	dec = o.OnInterval(10*time.Second, view)
	if dec.ReclaimBytes != 40*mb {
		t.Errorf("reclaim right before the spike = %d, want the 40 MB shortfall", dec.ReclaimBytes)
	}
	// Past the end of the recording the forecast is zero.
	for i := 0; i < 10; i++ {
		dec = o.OnInterval(time.Duration(15+5*i)*time.Second, view)
	}
	if dec.PredictedBytes != 0 || dec.ReclaimBytes != 0 {
		t.Errorf("post-recording decision = %+v, want zeros", dec)
	}
	if o.Name() != "Oracle" {
		t.Error("name")
	}
	o.Observe(trace.BufferedWrite, 123) // must be a no-op
}
