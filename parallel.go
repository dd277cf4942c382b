package jitgc

import (
	"sync"
	"sync/atomic"
)

// runIndexed executes fn(0), fn(1), …, fn(n-1) on up to workers goroutines.
// Every cell is independent and writes its result into a pre-indexed slot
// owned by the caller, so the assembled output is identical to a serial run
// regardless of scheduling. The first error — ties broken by lowest cell
// index, matching serial order — stops un-started cells; cells already
// running finish their current simulation first.
func runIndexed(workers, n int, fn func(i int) error) error {
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

// gridCells fans the n independent cells of an experiment grid out over
// opt.Workers simulation runners (see Options.Workers) and returns their
// results in cell order.
func gridCells[T any](opt Options, n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := runIndexed(opt.workers(), n, func(i int) (err error) {
		out[i], err = cell(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
