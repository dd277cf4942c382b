package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunVisitsEveryCellOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 37
		visits := make([]int32, n)
		err := Run(workers, n, func(i int) error {
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

func TestRunEmptyAndClampedWorkers(t *testing.T) {
	if err := Run(4, 0, nil); err != nil {
		t.Errorf("n=0: %v", err)
	}
	// workers below 1 clamp to a serial run rather than deadlocking.
	ran := 0
	err := Run(-2, 3, func(int) error {
		ran++
		return nil
	})
	if err != nil || ran != 3 {
		t.Errorf("clamped run: err=%v ran=%d", err, ran)
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("cell %d failed", i) }
	for _, workers := range []int{1, 4} {
		err := Run(workers, 8, func(i int) error {
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

func TestRunCancelsRemainingCells(t *testing.T) {
	var ran int32
	sentinel := errors.New("stop")
	err := Run(2, 1000, func(i int) error {
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

// TestRunLeavesNoWorkerAfterError: Run returns only after every started
// cell has finished and every worker has left its loop, so an error return
// leaves nothing running. Cells other than the failing one take a little
// time, so a pool that returned on the first error would leave them
// mid-cell. A worker that has called wg.Done may still be exiting when Run
// returns, so the goroutine count gets a bounded time to settle back to its
// baseline.
func TestRunLeavesNoWorkerAfterError(t *testing.T) {
	base := runtime.NumGoroutine()
	var running atomic.Int32
	sentinel := errors.New("stop")
	err := Run(8, 1000, func(i int) error {
		running.Add(1)
		defer running.Add(-1)
		if i == 3 {
			return sentinel
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n := running.Load(); n != 0 {
		t.Errorf("%d cells still running after an error return", n)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after an error return, baseline %d", n, base)
	}
}
