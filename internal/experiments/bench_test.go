package experiments

import (
	"fmt"
	"runtime"
	"testing"
)

// Benchmarks of the sweep engine itself: pool scaling. The root
// bench_test.go measures the per-figure work; here the work is fixed
// and the engine varies.

// benchSweepOpt is a Figure2-sized workload big enough for the pool
// to matter: full W2 sweep, paper-scale seed count.
func benchSweepOpt(parallelism int) Options {
	return Options{
		Engine:      Analytic,
		Seeds:       20,
		W2Values:    []int{16, 12, 8, 4},
		Parallelism: parallelism,
	}
}

// BenchmarkFigure2Engine compares the sequential engine against the
// worker pool at GOMAXPROCS: the ratio is the wall-clock speedup of
// the runner.
func BenchmarkFigure2Engine(b *testing.B) {
	app := WRFApp()
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Figure2(app, benchSweepOpt(par)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure5Engine is the boxplot sweep under the same
// comparison (3x the randomized cells of Figure 2).
func BenchmarkFigure5Engine(b *testing.B) {
	app := CGApp()
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Figure5(app, benchSweepOpt(par)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
