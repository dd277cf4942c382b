// Package parallel is the deterministic worker pool behind the experiment
// grids and tenant synthesis: n independent cells, each writing its result
// into a slot the caller owns, so the assembled output is the serial run's
// whatever the worker count or scheduling.
package parallel

import (
	"sync"
	"sync/atomic"
)

// Run executes fn(0), fn(1), …, fn(n-1) on up to workers goroutines and
// returns once every started cell has finished. Every cell is independent
// and writes its result into a pre-indexed slot owned by the caller, so the
// assembled output is identical to a serial run regardless of scheduling.
// The first error — ties broken by lowest cell index, matching serial order
// — stops un-started cells; cells already running finish first. workers
// below 1 run serially.
func Run(workers, n int, fn func(i int) error) error {
	workers = min(max(workers, 1), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // next cell to claim
		failed   atomic.Bool
		mu       sync.Mutex
		firstIdx = n   // lowest failing cell, so concurrent failures resolve
		firstErr error // to the error a serial run would have reported
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
