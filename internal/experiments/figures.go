package experiments

import (
	"fmt"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/xgft"
)

// Engine selects how slowdowns are obtained.
type Engine string

const (
	// Analytic uses the congestion bound model of
	// internal/contention: exact, fast, byte-size independent.
	Analytic Engine = "analytic"
	// Simulated replays the application trace over the event-driven
	// network simulator (the paper's methodology).
	Simulated Engine = "simulated"
)

// Options parameterizes the sweeps.
type Options struct {
	// Engine defaults to Analytic.
	Engine Engine
	// Seeds is the number of samples for the randomized schemes
	// (paper: 40-60 per boxplot). Defaults to 40.
	Seeds int
	// MessageBytes scales message sizes for Simulated runs; 0 keeps
	// the paper's sizes (slow), tests use small values.
	MessageBytes int64
	// W2Values lists the slimming sweep; defaults to 16..1.
	W2Values []int
	// Parallelism bounds the worker pool the sweep cells run on
	// (default: 4). Results are independent of the value: every cell
	// derives its randomness from its own key and writes its own
	// result slot, so parallel and sequential runs are
	// byte-identical.
	Parallelism int
	// Progress, when non-nil, is called after each completed sweep
	// cell with monotonically increasing done counts and the total
	// cell count of the running experiment (of a Batch, every sweep
	// it declared). It is called from the sweep goroutines under a
	// lock (never concurrently).
	Progress func(done, total int)
	// Cache is an explicit routing-table memo for a caller that runs
	// sweeps sharing tables (a benchmark's warm arm, a test). nil —
	// the default — means what a nil *core.TableCache means: every
	// cell builds its table, scores it and drops it. No sweep's
	// values depend on it.
	Cache *core.TableCache
}

func (o Options) withDefaults() Options {
	if o.Engine == "" {
		o.Engine = Analytic
	}
	if o.Seeds <= 0 {
		o.Seeds = 40
	}
	if len(o.W2Values) == 0 {
		for w2 := 16; w2 >= 1; w2-- {
			o.W2Values = append(o.W2Values, w2)
		}
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	return o
}

// slimmed is the spec of the 16-ary 2-tree slimmed to w2 top-level
// ports, XGFT(2;16,16;1,w2).
func slimmed(w2 int) string { return fmt.Sprintf("2;16,16;1,%d", w2) }

// appCell is the key an application sweep's cells share: the app at
// the options' message size, under the engine's measure.
func appCell(app *App, opt Options) (cellKey, error) {
	m, ok := map[Engine]measure{Analytic: measureAnalytic, Simulated: measureReplay}[opt.Engine]
	k := cellKey{wl: workload{name: app.Name, bytes: opt.MessageBytes}, measure: m}
	if k.wl.bytes <= 0 {
		k.wl.bytes = app.DefaultBytes
	}
	if !ok {
		return k, fmt.Errorf("experiments: unknown engine %q", opt.Engine)
	}
	return k, nil
}

// Fig2Row is one x-position of Fig. 2: the slowdown of each fixed
// algorithm on XGFT(2;16,16;1,W2), with Random represented by the
// median over seeds (the paper plots one static table).
type Fig2Row struct {
	W2       int
	Random   float64
	SModK    float64
	DModK    float64
	Colored  float64
	Crossbar float64 // always 1 by construction; kept for the figure
}

// Figure2 reproduces Fig. 2a (WRF-256) or Fig. 2b (CG.D-128):
// progressive tree slimming of the 16-ary 2-tree under the three
// classic oblivious routings and the pattern-aware bound.
func Figure2(app *App, opt Options) ([]Fig2Row, error) {
	return single(opt, func(b *Batch) (func() []Fig2Row, error) { return b.Figure2(app) })
}

// Figure2 declares Fig. 2's cells: Fig. 5's fixed schemes and Random,
// which its rows project.
func (b *Batch) Figure2(app *App) (func() []Fig2Row, error) {
	fig5, err := b.slimming(app, "random")
	return func() []Fig2Row {
		var rows []Fig2Row
		for _, r := range fig5() {
			rows = append(rows, Fig2Row{W2: r.W2, Random: r.Random.Median, SModK: r.SModK, DModK: r.DModK, Colored: r.Colored, Crossbar: 1})
		}
		return rows
	}, err
}

// Fig5Row is one x-position of Fig. 5: fixed curves for
// S-mod-k/D-mod-k/Colored plus seed boxplots for the randomized
// schemes.
type Fig5Row struct {
	W2      int
	SModK   float64
	DModK   float64
	Colored float64
	RNCAUp  stats.Summary
	RNCADn  stats.Summary
	Random  stats.Summary
}

// Figure5 reproduces Fig. 5a/5b: the proposed r-NCA-u and r-NCA-d
// schemes against Random (boxplots over seeds) and the fixed
// baselines, under progressive slimming.
func Figure5(app *App, opt Options) ([]Fig5Row, error) {
	return single(opt, func(b *Batch) (func() []Fig5Row, error) { return b.Figure5(app) })
}

// Figure5 declares Fig. 5's cells: every (topology, scheme, seed)
// triple, the fixed schemes at one seed.
func (b *Batch) Figure5(app *App) (func() []Fig5Row, error) {
	return b.slimming(app, "r-NCA-u", "r-NCA-d", "random")
}

// slimming declares, per W2 value, s-mod-k, d-mod-k and colored at
// seed 0, then each randomized scheme at seeds 1..Seeds, and returns
// the Fig. 5 rows they fill; an undeclared scheme's boxplot is zero.
func (b *Batch) slimming(app *App, randomized ...string) (func() []Fig5Row, error) {
	opt := b.opt.withDefaults()
	k, err := appCell(app, opt)
	if err != nil {
		return nil, err
	}
	type point struct {
		fixed  [3]int
		random map[string][]int
	}
	points := make([]point, len(opt.W2Values))
	for i, w2 := range opt.W2Values {
		k.topo = slimmed(w2)
		for c, name := range []string{"s-mod-k", "d-mod-k", "colored"} {
			points[i].fixed[c] = b.add(k.of(name))
		}
		points[i].random = map[string][]int{}
		for _, name := range randomized {
			points[i].random[name] = b.seeds(k, name, opt.Seeds)
		}
	}
	return func() []Fig5Row {
		rows := make([]Fig5Row, len(points))
		for i, p := range points {
			rows[i] = Fig5Row{W2: opt.W2Values[i], SModK: b.value(p.fixed[0])[0], DModK: b.value(p.fixed[1])[0], Colored: b.value(p.fixed[2])[0]}
			for name, box := range map[string]*stats.Summary{"r-NCA-u": &rows[i].RNCAUp, "r-NCA-d": &rows[i].RNCADn, "random": &rows[i].Random} {
				if ids := p.random[name]; ids != nil {
					*box = b.summary(ids)
				}
			}
		}
		return rows
	}, nil
}

// Fig4Result holds the routes-per-NCA census of one topology:
// deterministic vectors for the mod-k schemes and per-NCA boxplots
// over seeds for the randomized ones.
type Fig4Result struct {
	Topology string
	Roots    int
	SModK    []int
	DModK    []int
	Random   []stats.Summary
	RNCAUp   []stats.Summary
	RNCADn   []stats.Summary
}

// Figure4 reproduces Fig. 4a (w2=16) / 4b (w2=10): the distribution
// of all-pairs route assignments over the roots.
func Figure4(w2 int, opt Options) (*Fig4Result, error) {
	return single(opt, func(b *Batch) (func() *Fig4Result, error) { return b.Figure4(w2) })
}

// Figure4 declares Fig. 4's cells: the two deterministic censuses
// plus one census per (scheme, seed).
func (b *Batch) Figure4(w2 int) (func() *Fig4Result, error) {
	opt := b.opt.withDefaults()
	k := cellKey{topo: slimmed(w2), measure: measureCensus}
	smod, dmod := b.add(k.of("s-mod-k")), b.add(k.of("d-mod-k"))
	var random [3][]int
	for j, name := range []string{"random", "r-NCA-u", "r-NCA-d"} {
		random[j] = b.seeds(k, name, opt.Seeds)
	}
	return func() *Fig4Result {
		tp := b.parsed(k.topo)
		res := &Fig4Result{
			Topology: tp.String(),
			Roots:    tp.NodesAt(2),
			SModK:    ints(b.value(smod)),
			DModK:    ints(b.value(dmod)),
		}
		perRoot := func(ids []int) []stats.Summary {
			out := make([]stats.Summary, res.Roots)
			for root := range out {
				out[root] = stats.Summarize(b.column(ids, root))
			}
			return out
		}
		res.Random, res.RNCAUp, res.RNCADn = perRoot(random[0]), perRoot(random[1]), perRoot(random[2])
		return res
	}, nil
}

// ints converts a census cell back to route counts.
func ints(v []float64) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// Fig3Result decomposes CG.D-128: its aggregate connectivity matrix
// and the per-phase slowdown of D-mod-k on the full 16-ary 2-tree
// (the paper's "fifth phase takes ~8x longer" analysis; here 7x — see
// README.md, "Substitutions and known deviations").
type Fig3Result struct {
	Matrix      [][]int64
	PhaseNet    []int64 // per-phase completion bound, bytes
	PhaseXbar   []int64 // per-phase crossbar bound, bytes
	PhaseFactor []float64
}

// Figure3 reproduces Fig. 3.
func Figure3(opt Options) (*Fig3Result, error) {
	opt = opt.withDefaults()
	tp, err := xgft.NewSlimmedTree(16, 16, 16)
	if err != nil {
		return nil, err
	}
	phases := pattern.CGD128Phases()
	all, err := pattern.Union(phases...)
	if err != nil {
		return nil, err
	}
	net, xbar, err := contention.PhaseBoundsCached(opt.Cache, tp, core.NewDModK(tp), phases)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{
		Matrix:    all.ConnectivityMatrix(),
		PhaseNet:  net,
		PhaseXbar: xbar,
	}
	res.PhaseFactor = make([]float64, len(net))
	for i := range net {
		if xbar[i] > 0 {
			res.PhaseFactor[i] = float64(net[i]) / float64(xbar[i])
		}
	}
	return res, nil
}

// Table1Row describes one level of an XGFT the way the paper's
// Table I does.
type Table1Row struct {
	Level      int
	Nodes      int
	LabelForm  string
	UpLinks    int
	DownLinks  int
	ExampleLab string
}

// Table1 renders the label schema of a topology.
func Table1(tp *xgft.Topology) []Table1Row {
	h := tp.Height()
	rows := make([]Table1Row, h+1)
	for l := 0; l <= h; l++ {
		form := "<"
		for j := h - 1; j >= 0; j-- {
			if j < h-1 {
				form += ","
			}
			if j < l {
				form += fmt.Sprintf("W%d", j+1)
			} else {
				form += fmt.Sprintf("M%d", j+1)
			}
		}
		form += ">"
		up := 0
		if l < h {
			up = tp.ChannelsAt(l)
		}
		down := 0
		if l > 0 {
			down = tp.ChannelsAt(l - 1)
		}
		example := ""
		if tp.NodesAt(l) > 1 {
			example = tp.FormatLabel(l, tp.NodesAt(l)-1)
		} else {
			example = tp.FormatLabel(l, 0)
		}
		rows[l] = Table1Row{
			Level:      l,
			Nodes:      tp.NodesAt(l),
			LabelForm:  form,
			UpLinks:    up,
			DownLinks:  down,
			ExampleLab: example,
		}
	}
	return rows
}
