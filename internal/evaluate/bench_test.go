package evaluate

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// The evaluator benchmarks anchor the perf trajectory
// (scripts/bench.sh): the analytic bound is the hot path every
// optimizer pass and sweep cell rides, the cached variants are what
// production re-optimization actually pays, and the venus run prices
// one unit of simulation fidelity.

func benchSetup(b *testing.B) (*xgft.Topology, core.Algorithm, []*pattern.Pattern) {
	b.Helper()
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	return tp, core.NewDModK(tp), []*pattern.Pattern{pattern.KeyedRandomPermutation(tp.Leaves(), 64*1024, 1)}
}

func BenchmarkAnalyticScore(b *testing.B) {
	tp, algo, phases := benchSetup(b)
	ev := NewAnalytic(core.NewTableCache(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Score(tp, algo, phases); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCachedScoreHit(b *testing.B) {
	tp, algo, phases := benchSetup(b)
	c := NewCached(NewAnalytic(core.NewTableCache(8)), 16)
	if _, err := c.Score(tp, algo, phases); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Score(tp, algo, phases); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCachedScoreRoutesHit(b *testing.B) {
	tp, algo, phases := benchSetup(b)
	tbl, err := core.BuildTable(tp, algo, phases[0])
	if err != nil {
		b.Fatal(err)
	}
	c := NewCached(NewAnalytic(nil), 16)
	if _, err := c.ScoreRoutes(tp, phases[0], tbl.Routes); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ScoreRoutes(tp, phases[0], tbl.Routes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyRouteDelta prices the incremental scoring primitive:
// one churn-scale candidate (every 64th route moved) applied to a
// materialized LoadState, read, and reverted — against
// BenchmarkAnalyticScore's full census; zero steady-state allocations
// is part of the contract.
func BenchmarkApplyRouteDelta(b *testing.B) {
	tp, algo, phases := benchSetup(b)
	obs := phases[0]
	tbl, err := core.BuildTable(tp, algo, obs)
	if err != nil {
		b.Fatal(err)
	}
	ls, err := NewLoadState(tp, obs, tbl.Routes)
	if err != nil {
		b.Fatal(err)
	}
	var flows []pattern.Flow
	var oldR, newR []xgft.Route
	for i := 0; i < len(tbl.Routes); i += 64 {
		r := tbl.Routes[i]
		if len(r.Up) < 2 {
			continue
		}
		nr := xgft.Route{Src: r.Src, Dst: r.Dst, Up: append([]int(nil), r.Up...)}
		nr.Up[1] = (nr.Up[1] + 1) % tp.W(1)
		flows = append(flows, obs.Flows[i])
		oldR = append(oldR, r)
		newR = append(newR, nr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ls.ApplyRouteDelta(flows, oldR, newR); err != nil {
			b.Fatal(err)
		}
		_ = ls.Slowdown()
		if err := ls.ApplyRouteDelta(flows, newR, oldR); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVenusScore(b *testing.B) {
	tp, algo, _ := benchSetup(b)
	// Smaller messages than the analytic benchmarks: simulation time
	// scales with segment count, and the benchmark prices the engine,
	// not the payload.
	phases := []*pattern.Pattern{pattern.KeyedRandomPermutation(tp.Leaves(), 4096, 1)}
	ev := NewVenus(core.NewTableCache(8), venus0())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Score(tp, algo, phases); err != nil {
			b.Fatal(err)
		}
	}
}
