package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/stats"
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

// DeepTreeSweep evaluates the routing family on three-level slimmed
// trees XGFT(3;8,8,8;1,w,w), w = 8..1, under a workload of random
// permutations (the regime where the paper's analysis predicts the
// relabeling family matches Random's balance while keeping mod-k's
// concentration). Slowdowns are analytic; Options.Seeds (default 10
// here) parameterizes both the permutations and the randomized
// algorithms, Options.MessageBytes (default 64 KiB) the per-flow
// size.
func DeepTreeSweep(opt Options) ([]DeepRow, error) {
	return single(opt, (*Batch).DeepTreeSweep)
}

// DeepTreeSweep declares the three-level sweep's cells: one per (w,
// scheme, seed). Seed s draws both the permutation, from the keyed
// splitmix64 stream, and the randomized schemes; the fixed schemes
// are averaged over the permutations.
func (b *Batch) DeepTreeSweep() (func() []DeepRow, error) {
	opt := b.opt
	if opt.Seeds <= 0 {
		opt.Seeds = 10
	}
	if opt.MessageBytes <= 0 {
		opt.MessageBytes = 64 * 1024
	}
	ws := []int{8, 7, 6, 5, 4, 3, 2, 1}
	schemes := []string{"s-mod-k", "d-mod-k", "r-NCA-u", "r-NCA-d", "random"}
	specs := make([]string, len(ws))
	ids := make([][][]int, len(ws)) // ids[i][j][seed]: scheme j on topology i
	for i, w := range ws {
		specs[i] = fmt.Sprintf("3;8,8,8;1,%d,%d", w, w)
		ids[i] = make([][]int, len(schemes))
		for j, name := range schemes {
			for s := uint64(1); s <= uint64(opt.Seeds); s++ {
				k := cellKey{topo: specs[i], wl: workload{"permutation", opt.MessageBytes, s}, scheme: name, seed: s, measure: measureAnalytic}
				ids[i][j] = append(ids[i][j], b.add(k))
			}
		}
	}
	return func() []DeepRow {
		rows := make([]DeepRow, len(ws))
		for i, w := range ws {
			tp := b.parsed(specs[i])
			rows[i] = DeepRow{
				W:        w,
				Topology: tp.String(),
				Switches: tp.InnerSwitches(),
				SModK:    b.summary(ids[i][0]).Mean,
				DModK:    b.summary(ids[i][1]).Mean,
				RNCAUp:   b.summary(ids[i][2]),
				RNCADn:   b.summary(ids[i][3]),
				Random:   b.summary(ids[i][4]),
			}
		}
		return rows
	}, nil
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
// XGFT(2;16,16;1,w2). Options.Seeds defaults to 10 here.
func BalanceAblation(w2 int, opt Options) (*AblationRow, error) {
	return single(opt, func(b *Batch) (func() *AblationRow, error) { return b.BalanceAblation(w2) })
}

// BalanceAblation declares the ablation's cells: per variant and seed,
// an all-pairs census (Fig. 4b's cells for the balanced variant at
// w2=10) and an analytic CG.D-128 slowdown at the paper's message size
// (Fig. 5b's r-NCA-u cells under the analytic engine).
func (b *Batch) BalanceAblation(w2 int) (func() *AblationRow, error) {
	opt := b.opt
	if opt.Seeds <= 0 {
		opt.Seeds = 10
	}
	census := cellKey{topo: slimmed(w2), measure: measureCensus}
	cg, app := census, CGApp()
	cg.wl, cg.measure = workload{name: app.Name, bytes: app.DefaultBytes}, measureAnalytic
	var spreads, slowdowns [2][]int // [balanced, unbalanced][seed]
	for v, name := range []string{"r-NCA-u", unbalancedNCAUp} {
		spreads[v] = b.seeds(census, name, opt.Seeds)
		slowdowns[v] = b.seeds(cg, name, opt.Seeds)
	}
	// spread is the mean over seeds of each census's max - min.
	spread := func(ids []int) float64 {
		xs := make([]float64, len(ids))
		for j, i := range ids {
			lo, hi := math.Inf(1), 0.0
			for _, n := range b.value(i) {
				lo, hi = math.Min(lo, n), math.Max(hi, n)
			}
			xs[j] = hi - lo
		}
		return stats.Summarize(xs).Mean
	}
	return func() *AblationRow {
		return &AblationRow{
			Topology:               b.parsed(census.topo).String(),
			CensusSpreadBalanced:   spread(spreads[0]),
			CensusSpreadUnbalanced: spread(spreads[1]),
			CGBalanced:             b.summary(slowdowns[0]),
			CGUnbalanced:           b.summary(slowdowns[1]),
		}
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
