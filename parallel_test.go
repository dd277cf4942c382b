package jitgc

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

// TestNormCellGuardsDegenerateBaselines covers the report-table guard: a
// zero baseline IOPS/WAF produces NaN or Inf ratios, which must surface as
// "n/a" instead of leaking into the tables.
func TestNormCellGuardsDegenerateBaselines(t *testing.T) {
	var zero, r Results
	r.IOPS, r.WAF = 1000, 1.5
	if got := normCell(r.NormalizedIOPS(zero)); got != "n/a" {
		t.Errorf("NaN cell = %q, want n/a", got)
	}
	if got := normCell(math.Inf(1)); got != "n/a" {
		t.Errorf("Inf cell = %q, want n/a", got)
	}
	if got := normCell(1.234); got != "1.234" {
		t.Errorf("finite cell = %q", got)
	}
	if got := normLifetimeCell(5, 0); got != "n/a" {
		t.Errorf("zero lifetime baseline = %q, want n/a", got)
	}
}

func TestRunIndexedVisitsEveryCellOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 37
		visits := make([]int32, n)
		err := runIndexed(workers, n, func(i int) error {
			atomic.AddInt32(&visits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Errorf("workers=%d: cell %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestRunIndexedEmptyAndClampedWorkers(t *testing.T) {
	if err := runIndexed(4, 0, nil); err != nil {
		t.Errorf("n=0: %v", err)
	}
	// workers below 1 clamp to a serial run rather than deadlocking.
	ran := 0
	err := runIndexed(-2, 3, func(int) error {
		ran++
		return nil
	})
	if err != nil || ran != 3 {
		t.Errorf("clamped run: err=%v ran=%d", err, ran)
	}
}

func TestRunIndexedReturnsLowestIndexError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("cell %d failed", i) }
	for _, workers := range []int{1, 4} {
		err := runIndexed(workers, 8, func(i int) error {
			if i == 2 || i == 5 {
				return boom(i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		// Workers may have claimed cell 5 before cell 2 failed; the pool
		// must still report the lowest failing index, like the serial run.
		if got := err.Error(); got != "cell 2 failed" {
			t.Errorf("workers=%d: err = %q, want cell 2", workers, got)
		}
	}
}

func TestRunIndexedCancelsRemainingCells(t *testing.T) {
	var ran int32
	sentinel := errors.New("stop")
	err := runIndexed(2, 1000, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n := atomic.LoadInt32(&ran); n == 1000 {
		t.Error("error did not cancel un-started cells")
	}
}
