package jitgc

import "jitgc/internal/parallel"

// gridCells fans the n independent cells of an experiment grid out over
// opt.Workers simulation runners (see Options.Workers) with parallel.Run
// and returns their results in cell order.
func gridCells[T any](opt Options, n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := parallel.Run(opt.workers(), n, func(i int) (err error) {
		out[i], err = cell(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
