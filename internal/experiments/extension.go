package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/xgft"
)

// The experiments in this file go beyond the paper's figures along
// the directions its text opens: the generalization claim ("extends
// the previous work from k-ary n-trees to the more general class of
// extended generalized fat trees") exercised on three-level trees,
// and an ablation of the balanced-map design choice of §VIII.

// DeepRow is one data point of the three-level generalization sweep:
// XGFT(3;8,8,8;1,w,w) under progressive slimming of both upper
// levels.
type DeepRow struct {
	W        int
	Topology string
	Switches int
	SModK    float64
	DModK    float64
	RNCAUp   stats.Summary
	RNCADn   stats.Summary
	Random   stats.Summary
}

// deepSchemes enumerates the sweep's routing schemes in result
// order: the two fixed baselines, then the three randomized schemes.
// Fixed schemes ignore the seed argument (they are averaged over the
// per-seed permutations instead).
var deepSchemes = []func(tp *xgft.Topology, seed uint64) core.Algorithm{
	func(tp *xgft.Topology, _ uint64) core.Algorithm { return core.NewSModK(tp) },
	func(tp *xgft.Topology, _ uint64) core.Algorithm { return core.NewDModK(tp) },
	func(tp *xgft.Topology, s uint64) core.Algorithm { return core.NewRandomNCAUp(tp, s) },
	func(tp *xgft.Topology, s uint64) core.Algorithm { return core.NewRandomNCADown(tp, s) },
	func(tp *xgft.Topology, s uint64) core.Algorithm { return core.NewRandom(tp, s) },
}

// DeepTreeSweep evaluates the routing family on three-level slimmed
// trees XGFT(3;8,8,8;1,w,w), w = 8..1, under a workload of random
// permutations (the regime where the paper's analysis predicts the
// relabeling family matches Random's balance while keeping mod-k's
// concentration). Slowdowns are analytic; Options.Seeds (default 10
// here) parameterizes both the permutations and the randomized
// algorithms, Options.MessageBytes (default 64 KiB) the per-flow
// size. Every (w, scheme, seed) triple is an independent sweep cell.
func DeepTreeSweep(opt Options) ([]DeepRow, error) {
	if opt.Seeds <= 0 {
		opt.Seeds = 10
	}
	if opt.MessageBytes <= 0 {
		opt.MessageBytes = 64 * 1024
	}
	opt = opt.withDefaults()
	seeds := opt.Seeds
	ws := []int{8, 7, 6, 5, 4, 3, 2, 1}
	topos := make([]*xgft.Topology, len(ws))
	perms := make([][]*pattern.Pattern, len(ws))
	for i, w := range ws {
		tp, err := xgft.New(3, []int{8, 8, 8}, []int{1, w, w})
		if err != nil {
			return nil, err
		}
		topos[i] = tp
		// Permutations come from the keyed splitmix64 stream per seed,
		// so the workload is identical however the cells are scheduled.
		perms[i] = make([]*pattern.Pattern, seeds)
		for s := 0; s < seeds; s++ {
			perms[i][s] = pattern.KeyedRandomPermutation(tp.Leaves(), opt.MessageBytes, uint64(s)+1)
		}
	}
	nSchemes := len(deepSchemes)
	cellsPerW := nSchemes * seeds
	// values[i][k][seed]: slowdown of scheme k on topology i.
	values := make([][][]float64, len(ws))
	for i := range values {
		values[i] = make([][]float64, nSchemes)
		for k := range values[i] {
			values[i][k] = make([]float64, seeds)
		}
	}
	ev := opt.evaluator()
	err := opt.run(len(ws)*cellsPerW, func(idx int) error {
		i, c := idx/cellsPerW, idx%cellsPerW
		k, seed := c/seeds, c%seeds
		tp := topos[i]
		algo := deepSchemes[k](tp, uint64(seed)+1)
		res, err := ev.Score(tp, algo, []*pattern.Pattern{perms[i][seed]})
		if err != nil {
			return err
		}
		values[i][k][seed] = res.Slowdown
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]DeepRow, len(ws))
	for i, w := range ws {
		rows[i] = DeepRow{
			W:        w,
			Topology: topos[i].String(),
			Switches: topos[i].InnerSwitches(),
			SModK:    stats.Summarize(values[i][0]).Mean,
			DModK:    stats.Summarize(values[i][1]).Mean,
			RNCAUp:   stats.Summarize(values[i][2]),
			RNCADn:   stats.Summarize(values[i][3]),
			Random:   stats.Summarize(values[i][4]),
		}
	}
	return rows, nil
}

// WriteDeepTreeSweep renders the generalization sweep.
func WriteDeepTreeSweep(w io.Writer, rows []DeepRow) {
	fmt.Fprintln(w, "Extension — three-level slimmed trees XGFT(3;8,8,8;1,w,w), random permutations")
	fmt.Fprintf(w, "%3s  %-22s %9s  %8s %8s  %-24s %-24s %-24s\n",
		"w", "topology", "#switches", "s-mod-k", "d-mod-k", "r-NCA-u [med]", "r-NCA-d [med]", "random [med]")
	for _, r := range rows {
		fmt.Fprintf(w, "%3d  %-22s %9d  %8.2f %8.2f  med=%-6.2f (%.2f-%.2f)    med=%-6.2f (%.2f-%.2f)    med=%-6.2f (%.2f-%.2f)\n",
			r.W, r.Topology, r.Switches, r.SModK, r.DModK,
			r.RNCAUp.Median, r.RNCAUp.Min, r.RNCAUp.Max,
			r.RNCADn.Median, r.RNCADn.Min, r.RNCADn.Max,
			r.Random.Median, r.Random.Min, r.Random.Max)
	}
}

// AblationRow compares the balanced relabeling against its unbalanced
// ablation on one topology.
type AblationRow struct {
	Topology string
	// CensusSpreadBalanced/Unbalanced: mean (max-min) of the
	// all-pairs NCA census over seeds — Fig. 4b's balance view.
	CensusSpreadBalanced   float64
	CensusSpreadUnbalanced float64
	// CG slowdown medians over seeds.
	CGBalanced   stats.Summary
	CGUnbalanced stats.Summary
}

// BalanceAblation quantifies what the paper's balanced maps buy over
// naive per-subtree uniform relabeling on the slimmed tree
// XGFT(2;16,16;1,w2). Options.Seeds defaults to 10 here; each
// (variant, metric, seed) triple is an independent sweep cell.
func BalanceAblation(w2 int, opt Options) (*AblationRow, error) {
	if opt.Seeds <= 0 {
		opt.Seeds = 10
	}
	opt = opt.withDefaults()
	seeds := opt.Seeds
	tp, err := xgft.NewSlimmedTree(16, 16, w2)
	if err != nil {
		return nil, err
	}
	variants := []func(seed uint64) core.Algorithm{
		func(s uint64) core.Algorithm { return core.NewRandomNCAUp(tp, s) },
		func(s uint64) core.Algorithm { return core.NewUnbalancedNCAUp(tp, s) },
	}
	phases := pattern.CGD128Phases()
	// spreads[v][seed] and slowdowns[v][seed], v = balanced/unbalanced.
	spreads := [2][]float64{make([]float64, seeds), make([]float64, seeds)}
	slowdowns := [2][]float64{make([]float64, seeds), make([]float64, seeds)}
	// Cell layout: variant-major, census cells before slowdown cells.
	cellsPerVariant := 2 * seeds
	ev := opt.evaluator()
	err = opt.run(2*cellsPerVariant, func(idx int) error {
		v, c := idx/cellsPerVariant, idx%cellsPerVariant
		metric, seed := c/seeds, c%seeds
		algo := variants[v](uint64(seed) + 1)
		if metric == 0 {
			census := core.AllPairsNCACensus(tp, algo)
			min, max := int(^uint(0)>>1), 0
			for _, n := range census {
				if n < min {
					min = n
				}
				if n > max {
					max = n
				}
			}
			spreads[v][seed] = float64(max - min)
			return nil
		}
		res, err := ev.Score(tp, algo, phases)
		if err != nil {
			return err
		}
		slowdowns[v][seed] = res.Slowdown
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationRow{
		Topology:               tp.String(),
		CensusSpreadBalanced:   stats.Summarize(spreads[0]).Mean,
		CensusSpreadUnbalanced: stats.Summarize(spreads[1]).Mean,
		CGBalanced:             stats.Summarize(slowdowns[0]),
		CGUnbalanced:           stats.Summarize(slowdowns[1]),
	}, nil
}

// WriteBalanceAblation renders the ablation.
func WriteBalanceAblation(w io.Writer, row *AblationRow) {
	fmt.Fprintf(w, "Ablation — balanced vs uniform relabeling on %s\n", row.Topology)
	fmt.Fprintf(w, "all-pairs census spread (max-min per seed, mean): balanced %.0f, unbalanced %.0f\n",
		row.CensusSpreadBalanced, row.CensusSpreadUnbalanced)
	fmt.Fprintf(w, "CG.D-128 slowdown: balanced %s\n", row.CGBalanced)
	fmt.Fprintf(w, "                 unbalanced %s\n", row.CGUnbalanced)
}
