package evaluate

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// TestAnalyticScoreAllocs: an uncached analytic score of CG-128's five
// phases routes and counts into pooled scratch, so once the pool is
// warm the result's three slices (two bound vectors and PerPhase) are
// all it allocates, for the oblivious schemes the sweeps score most.
func TestAnalyticScoreAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's sync.Pool drops scratch at random")
	}
	tp := mustTree(t, 16, 16, 10)
	phases := pattern.CGD128Phases()
	ev := NewAnalytic(nil)
	for _, algo := range []core.Algorithm{core.NewRandom(tp, 3), core.NewDModK(tp), core.NewRandomNCAUp(tp, 3)} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := ev.Score(tp, algo, phases); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("%s: %.0f allocations per Score, want at most 3", algo.Name(), allocs)
		}
	}
}

// TestAnalyticScoreConcurrent scores mixed trees, schemes and phase
// sets from eight goroutines at once, cached and uncached, and holds
// every result to the sequential one: pooled scratch is never shared
// by two calls, whatever the tree it was last sized for.
func TestAnalyticScoreConcurrent(t *testing.T) {
	type job struct {
		name   string
		tp     *xgft.Topology
		algo   core.Algorithm
		phases []*pattern.Pattern
	}
	var jobs []job
	for _, tc := range []struct {
		tp     *xgft.Topology
		phases []*pattern.Pattern
	}{
		{mustTree(t, 16, 16, 10), pattern.CGD128Phases()},
		{mustTree(t, 8, 8, 4), cgPhases(t, 64, 4096)},
		{xgft.MustNew(3, []int{4, 4, 4}, []int{1, 2, 2}), cgPhases(t, 64, 2048)},
	} {
		for _, algo := range []core.Algorithm{
			core.NewRandom(tc.tp, 5), core.NewSModK(tc.tp), core.NewDModK(tc.tp),
			core.NewRandomNCAUp(tc.tp, 5), core.NewRandomNCADown(tc.tp, 5),
			core.NewColored(tc.tp, tc.phases, core.ColoredConfig{}),
		} {
			jobs = append(jobs, job{fmt.Sprintf("%s/%s", tc.tp, algo.Name()), tc.tp, algo, tc.phases})
		}
	}
	evs := []Evaluator{NewAnalytic(nil), NewAnalytic(core.NewTableCache(8))}
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		res, err := evs[0].Score(j.tp, j.algo, j.phases)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	const workers, rounds = 8, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds*len(jobs); r++ {
				i := (w*5 + r) % len(jobs)
				j := jobs[i]
				got, err := evs[(w+r)%len(evs)].Score(j.tp, j.algo, j.phases)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d, %s: %+v, sequential %+v", w, j.name, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

func cgPhases(t *testing.T, n int, bytes int64) []*pattern.Pattern {
	t.Helper()
	phases, err := pattern.CGPhases(n, bytes)
	if err != nil {
		t.Fatal(err)
	}
	return phases
}

// raceBuild reports a -race build, whose sync.Pool drops a quarter of
// what it is handed back, so allocation counts there measure the
// detector rather than the code.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
