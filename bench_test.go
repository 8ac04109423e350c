package repro_test

import (
	"fmt"
	"io"
	"testing"

	repro "repro"
	"repro/internal/benchcal"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/experiments"
	"repro/internal/pattern"
	"repro/internal/traces"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// Benchmarks regenerating the paper's tables and figures (one per
// artifact; README.md, "Regenerating the paper's tables and figures",
// is the index). Reduced message sizes and seed counts keep iterations
// meaningful while preserving every contention ratio; cmd/experiments
// reproduces the full-size sweeps.

// benchOpt is the figure-sweep configuration used by benchmarks:
// sequential, so iterations measure the work itself rather than pool
// scaling (see internal/experiments/bench_test.go for that).
func benchOpt() experiments.Options {
	return experiments.Options{
		Engine:      experiments.Analytic,
		Seeds:       10,
		Parallelism: 1,
	}
}

// BenchmarkCalibration is the shared machine-speed reference
// (internal/benchcal): cmd/benchgate divides this package's gated
// benchmarks (the simulator, trace-replay and census ones) by its drift
// ratio so the regression gate tracks code, not CI-runner speed.
func BenchmarkCalibration(b *testing.B) { benchcal.Bench(b) }

func BenchmarkTable1Labels(b *testing.B) {
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(tp)
		experiments.WriteTable1(io.Discard, tp, rows)
	}
}

func BenchmarkFig2aWRF(b *testing.B) {
	app := experiments.WRFApp()
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(app, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2bCG(b *testing.B) {
	app := experiments.CGApp()
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(app, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3CGDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Distribution(b *testing.B) {
	for _, w2 := range []int{16, 10} {
		b.Run(fmt.Sprintf("w2=%d", w2), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Figure4(w2, experiments.Options{Seeds: 5, Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5aWRF(b *testing.B) {
	app := experiments.WRFApp()
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(app, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5bCG(b *testing.B) {
	app := experiments.CGApp()
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(app, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2bSimulated is the measured-engine counterpart of one
// Fig. 2b data point: the full trace-replay pipeline for CG.D-128 on
// the full tree (message sizes scaled down 16x).
func BenchmarkFig2bSimulated(b *testing.B) {
	tp, err := xgft.NewSlimmedTree(16, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := traces.CG(128, 48*1024, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dimemas.Config{Net: venus.DefaultConfig()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dimemas.Replay(tr, tp, core.NewDModK(tp), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the load-bearing substrates ---

func BenchmarkRouteComputation(b *testing.B) {
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	algos := map[string]core.Algorithm{
		"s-mod-k": core.NewSModK(tp),
		"random":  core.NewRandom(tp, 1),
		"r-NCA-u": core.NewRandomNCAUp(tp, 1),
	}
	for name, algo := range algos {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			n := tp.Leaves()
			for i := 0; i < b.N; i++ {
				s := i % n
				d := (i*31 + 17) % n
				_ = algo.Route(s, d)
			}
		})
	}
}

func BenchmarkRoutingTableWRF(b *testing.B) {
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	p := pattern.WRF256()
	algo := core.NewDModK(tp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildTable(tp, algo, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColoredOptimizer builds the pattern-aware candidate for the
// figures' input (the five CG phases on the full tree) and for the
// daemon's (one keyed 1 024-flow observed phase on the slimmed tree,
// what every Fabric.Optimize pass under churn hands it).
func BenchmarkColoredOptimizer(b *testing.B) {
	for _, c := range []struct {
		name   string
		w2     int
		phases []*pattern.Pattern
	}{
		{"cg-w16", 16, repro.CGD128Phases()},
		{"keyed1024-w10", 10, []*pattern.Pattern{pattern.UniformRandom(256, 4, 64*1024, 7)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			tp, err := xgft.NewSlimmedTree(16, 16, c.w2)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.NewColored(tp, c.phases, core.ColoredConfig{})
			}
		})
	}
}

func BenchmarkContentionAnalysis(b *testing.B) {
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	p := pattern.UniformRandom(256, 4, 64*1024, 3)
	tbl, err := core.BuildTable(tp, core.NewRandom(tp, 1), p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := contention.Analyze(tp, p, tbl.Routes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	// Event-processing rate of the network simulator under a loaded
	// random permutation, and the calendar events one segment hop
	// costs.
	tp, err := xgft.NewSlimmedTree(16, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	p := pattern.KeyedRandomPermutation(256, 64*1024, 5)
	algo := core.NewRandom(tp, 9)
	cfg := venus.DefaultConfig()
	b.ReportAllocs()
	var events, hops uint64
	for i := 0; i < b.N; i++ {
		s, err := venus.New(tp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range p.Flows {
			if err := s.Inject(venus.Message{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes, Route: algo.Route(f.Src, f.Dst)}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Run(0); err != nil {
			b.Fatal(err)
		}
		events += s.Q.Processed()
		hops += s.SegmentsMoved
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(events)/float64(hops), "events/segment-hop")
}

func BenchmarkTraceReplayWRF(b *testing.B) {
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := traces.WRF(16, 16, 32*1024, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dimemas.Config{Net: venus.DefaultConfig()}
	algo := core.NewRandomNCADown(tp, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dimemas.Replay(tr, tp, algo, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (one design choice each, against its alternative) ---

// BenchmarkAblationBalancedRelabeling compares the paper's balanced
// maps against naive uniform relabeling: same cost per route, but the
// census spread (reported as a custom metric) shows what balance buys.
func BenchmarkAblationBalancedRelabeling(b *testing.B) {
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	variants := map[string]func(uint64) core.Algorithm{
		"balanced":   func(s uint64) core.Algorithm { return core.NewRandomNCAUp(tp, s) },
		"unbalanced": func(s uint64) core.Algorithm { return core.NewUnbalancedNCAUp(tp, s) },
	}
	for name, mk := range variants {
		b.Run(name, func(b *testing.B) {
			spread := 0
			for i := 0; i < b.N; i++ {
				census := core.AllPairsNCACensus(tp, mk(uint64(i)+1))
				min, max := 1<<31, 0
				for _, c := range census {
					if c < min {
						min = c
					}
					if c > max {
						max = c
					}
				}
				spread += max - min
			}
			b.ReportMetric(float64(spread)/float64(b.N), "census-spread")
		})
	}
}

// BenchmarkAblationForwardingMode compares store-and-forward against
// virtual cut-through on the same loaded run: bandwidth ratios match,
// absolute latency differs.
func BenchmarkAblationForwardingMode(b *testing.B) {
	tp, err := xgft.NewSlimmedTree(16, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	p := pattern.KeyedRandomPermutation(256, 32*1024, 2)
	algo := core.NewRandomNCADown(tp, 4)
	for _, mode := range []struct {
		name string
		cut  bool
	}{{"store-and-forward", false}, {"cut-through", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := venus.DefaultConfig()
			cfg.CutThrough = mode.cut
			var last int64
			for i := 0; i < b.N; i++ {
				end, err := venus.RunPattern(tp, algo, p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = int64(end)
			}
			b.ReportMetric(float64(last), "sim-ns")
		})
	}
}

// BenchmarkAblationBufferDepth sweeps the switch input buffer depth:
// tiny buffers throttle the pipeline, large ones stop paying off.
func BenchmarkAblationBufferDepth(b *testing.B) {
	tp, err := xgft.NewSlimmedTree(16, 16, 4)
	if err != nil {
		b.Fatal(err)
	}
	p := pattern.KeyedRandomPermutation(256, 32*1024, 8)
	algo := core.NewRandom(tp, 6)
	for _, depth := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			cfg := venus.DefaultConfig()
			cfg.BufferSegments = depth
			var last int64
			for i := 0; i < b.N; i++ {
				end, err := venus.RunPattern(tp, algo, p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = int64(end)
			}
			b.ReportMetric(float64(last), "sim-ns")
		})
	}
}

// BenchmarkAblationColoredPasses sweeps the local-search budget of
// the pattern-aware baseline: the CG transpose needs few passes to
// reach a conflict-free coloring.
func BenchmarkAblationColoredPasses(b *testing.B) {
	tp, err := xgft.NewSlimmedTree(16, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	ph, err := pattern.CGTransposePhase(128, 1024)
	if err != nil {
		b.Fatal(err)
	}
	phases := []*pattern.Pattern{ph}
	for _, passes := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("passes=%d", passes), func(b *testing.B) {
			var col *core.Colored
			for i := 0; i < b.N; i++ {
				col = core.NewColored(tp, phases, core.ColoredConfig{MaxPasses: passes})
			}
			b.StopTimer()
			tbl, err := core.BuildTable(tp, col, ph)
			if err != nil {
				b.Fatal(err)
			}
			a, err := contention.Analyze(tp, ph, tbl.Routes)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(a.MaxNetworkContention()), "max-groups")
		})
	}
}

// BenchmarkExtensionDeepTree regenerates the three-level XGFT
// generalization sweep.
func BenchmarkExtensionDeepTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DeepTreeSweep(experiments.Options{Seeds: 3, MessageBytes: 16 * 1024, Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNCACensus times the Fig. 4 census of Random on
// XGFT(2;16,16;1,10): one ascent per ordered pair, the census that
// stays all-pairs.
func BenchmarkNCACensus(b *testing.B) {
	benchmarkNCACensus(b, core.NewRandom)
}

// BenchmarkNCACensusGuided times the same census of r-NCA-u, taken per
// guide leaf: under 1 % of BenchmarkNCACensus, a ratio the bench
// gate holds, so a guided census that falls back to all pairs fails it.
func BenchmarkNCACensusGuided(b *testing.B) {
	benchmarkNCACensus(b, core.NewRandomNCAUp)
}

func benchmarkNCACensus(b *testing.B, mk func(*xgft.Topology, uint64) core.Algorithm) {
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	algo := mk(tp, 1)
	for i := 0; i < b.N; i++ {
		_ = core.AllPairsNCACensus(tp, algo)
	}
}
