package experiments

import (
	"sync"

	"repro/internal/evaluate"
)

// This file is the concurrent sweep engine: every figure and table
// decomposes into independent (topology, algorithm, pattern, seed)
// cells, which run on a bounded worker pool. Three invariants make
// parallel runs byte-identical to sequential ones:
//
//   - each cell writes only its own pre-allocated result slot, indexed
//     by the cell's position in the deterministic cell enumeration;
//   - randomness is derived per cell from (seed, cell coordinates) —
//     there is no shared rand.Rand, so scheduling order cannot leak
//     into results;
//   - aggregation (medians, boxplot summaries) happens after the pool
//     drains, over slices whose order is fixed by the enumeration.
//
// Errors are deterministic too: the error of the lowest-indexed
// failing cell is returned, regardless of completion order.

// evaluator resolves the scoring backend pattern-level sweeps use:
// the injected one, or the analytic bound over the options' cache
// (nil unless the caller supplied one: build, score, drop).
func (o Options) evaluator() evaluate.Evaluator {
	if o.Evaluator != nil {
		return o.Evaluator
	}
	return evaluate.NewAnalytic(o.Cache)
}

// runCells executes fn(0..n-1) on a pool of the given width, invoking
// progress (if non-nil) after each completed cell with monotonically
// increasing done counts, and returning the error of the
// lowest-indexed failing cell.
func runCells(n, workers int, progress func(done, total int), fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			err := fn(i)
			// Failed cells count as done (matching the parallel
			// path); on error the pool drains in-flight cells, so a
			// parallel run may report a few more cells than this
			// path before stopping — results on success are
			// parallelism-independent, error-path progress is
			// best-effort.
			if progress != nil {
				progress(i+1, n)
			}
			if err != nil {
				// In-order execution: the first error is the
				// lowest-indexed one, so stop immediately.
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = n
		done     int
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				err := fn(i)
				mu.Lock()
				if err != nil && i < firstIdx {
					firstErr, firstIdx = err, i
				}
				done++
				if progress != nil {
					progress(done, n)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		// Stop dispatching once any cell has failed. Cells are
		// dispatched in index order, so every cell below an observed
		// failure has already been dispatched and will still report:
		// the returned error remains the globally lowest-indexed one.
		mu.Lock()
		failed := firstIdx < n
		mu.Unlock()
		if failed {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// run executes n cells under the options' parallelism and progress
// callback.
func (o Options) run(n int, fn func(i int) error) error {
	return runCells(n, o.Parallelism, o.Progress, fn)
}
