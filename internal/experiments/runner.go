package experiments

import (
	"sync"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/evaluate"
	"repro/internal/eventq"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// This file is the concurrent sweep engine: the grid the figure sweeps
// declare their cells on and the worker pool that scores them. A cell
// writes only its own slot, draws its randomness from its key and is
// aggregated only after the pool drains, so a parallel run is
// byte-identical to a sequential one, and the error returned is the
// lowest-indexed failing cell's. docs/ARCHITECTURE.md, "The parallel
// sweep engine", has the cell key and the declare/run/collect steps.

// measure is what a cell computes of its (topology, workload, scheme)
// triple.
type measure uint8

const (
	measureAnalytic measure = iota // congestion bound over the workload's phases
	measureReplay                  // trace replay on the network simulator, over one crossbar replay
	measureVenus                   // the venus backend's flit-level makespan slowdown
	measureCensus                  // all-pairs routes per root switch; reads no workload
	measureDegraded                // bound of the tables patched around failed top wires, and the unreachable share
	measureAdaptive                // venus makespan slowdown under per-segment adaptive routing; builds no scheme
)

// unbalancedNCAUp names the ablation's naive relabeling, the one
// scheme core's registry does not build.
const unbalancedNCAUp = "unbalanced-r-NCA-u"

// cellKey is everything a cell's value depends on: sweeps that declare
// equal keys share one cell.
type cellKey struct {
	topo    string // xgft.Parse spec
	wl      workload
	scheme  string // a core.NewByName name, unbalancedNCAUp, or venus.AdaptiveAlgorithmName
	seed    uint64 // scheme seed; also keys the fault draw of degraded cells
	failed  int    // failed top-level wires of degraded cells
	measure measure
}

// replay is one workload's lowered trace and its crossbar replay time.
// The reference depends on neither the topology nor the scheme, so the
// grid computes it once per workload.
type replay struct {
	tr  *dimemas.Trace
	ref eventq.Time
}

var replayConfig = dimemas.Config{Net: venus.DefaultConfig()}

// grid holds the distinct cells the declared sweeps asked for, in
// declaration order; opt is the batch's, before any sweep's defaults.
// Once run has returned, cell i's values are flat[off[i]:off[i+1]].
type grid struct {
	opt   Options
	keys  []cellKey
	index map[cellKey]int
	topos table[string, *xgft.Topology]
	flat  []float64
	off   []int
}

// topo parses spec once per grid.
func (g *grid) topo(spec string) (*xgft.Topology, error) {
	i, err := g.topos.id(spec, func() (*xgft.Topology, error) { return xgft.Parse(spec) })
	if err != nil {
		return nil, err
	}
	return g.topos.vals[i], nil
}

// parsed is the topology of a spec the run has parsed.
func (g *grid) parsed(spec string) *xgft.Topology { return g.topos.vals[g.topos.ids[spec]] }

// cell is a key resolved to indices into the run's inputs. A run drops
// its string keys once they are resolved, so nothing it keeps per cell
// during the fan-out (cells, offsets, values) holds a pointer: the
// collector, which runs often while cells build and drop routing
// tables, has none of it to mark.
type cell struct {
	topo, scheme, phases, input int32 // input: the replay or fault view, by measure
	seed                        uint64
	measure                     measure
}

// inputs are what cells share, resolved sequentially before the
// fan-out and only read during it.
type inputs struct {
	schemes table[string, string]
	phases  table[phaseKey, []*pattern.Pattern]
	replays table[workload, *replay]
	views   table[viewKey, *xgft.View]
}

type phaseKey struct {
	wl workload
	n  int // leaves of the tree it is drawn for
}

type viewKey struct {
	topo   string
	failed int
	seed   uint64
}

// table holds the distinct values of one kind of input, by key.
type table[K comparable, V any] struct {
	ids  map[K]int32
	vals []V
}

// id returns k's index, building its value on first use.
func (t *table[K, V]) id(k K, build func() (V, error)) (int32, error) {
	if i, ok := t.ids[k]; ok {
		return i, nil
	}
	v, err := build()
	if err != nil {
		return 0, err
	}
	if t.ids == nil {
		t.ids = map[K]int32{}
	}
	t.ids[k] = int32(len(t.vals))
	t.vals = append(t.vals, v)
	return int32(len(t.vals) - 1), nil
}

// of is k with its scheme set.
func (k cellKey) of(scheme string) cellKey {
	k.scheme = scheme
	return k
}

// add declares k and returns its cell.
func (g *grid) add(k cellKey) int {
	i, ok := g.index[k]
	if !ok {
		i = len(g.keys)
		g.index[k] = i
		g.keys = append(g.keys, k)
	}
	return i
}

// seeds declares scheme on k at seeds 1..n.
func (g *grid) seeds(k cellKey, scheme string, n int) []int {
	k.scheme = scheme
	ids := make([]int, n)
	for s := range ids {
		k.seed = uint64(s) + 1
		ids[s] = g.add(k)
	}
	return ids
}

// value is cell i's values.
func (g *grid) value(i int) []float64 { return g.flat[g.off[i]:g.off[i+1]] }

// summary summarizes the first values of the cells ids.
func (g *grid) summary(ids []int) stats.Summary { return stats.Summarize(g.column(ids, 0)) }

// column gathers value col of the cells ids.
func (g *grid) column(ids []int, col int) []float64 {
	xs := make([]float64, len(ids))
	for j, i := range ids {
		xs[j] = g.flat[g.off[i]+col]
	}
	return xs
}

// run resolves the inputs cells share sequentially — phases per
// workload, one trace and crossbar replay per replayed workload, one
// fault view per (topology, failed count, seed) — then scores each
// distinct cell once on the worker pool. No cell may be declared after
// it.
func (g *grid) run() error {
	var in inputs
	cells := make([]cell, len(g.keys))
	g.off = make([]int, len(g.keys)+1)
	for i, k := range g.keys {
		c := cell{seed: k.seed, measure: k.measure}
		tp, err := g.topo(k.topo)
		if err != nil {
			return err
		}
		c.topo = g.topos.ids[k.topo]
		c.scheme, _ = in.schemes.id(k.scheme, func() (string, error) { return k.scheme, nil })
		if k.wl != (workload{}) {
			c.phases, err = in.phases.id(phaseKey{k.wl, tp.Leaves()}, func() ([]*pattern.Pattern, error) { return k.wl.phases(tp.Leaves()) })
			if err != nil {
				return err
			}
		}
		width := 1
		switch k.measure {
		case measureCensus:
			width = tp.NodesAt(tp.Height()) // routes per root
		case measureReplay:
			c.input, err = in.replays.id(k.wl, func() (*replay, error) { return newReplay(k.wl) })
		case measureDegraded:
			width = 2 // slowdown, unreachable share
			c.input, err = in.views.id(viewKey{k.topo, k.failed, k.seed}, func() (*xgft.View, error) {
				v := xgft.NewView(tp)
				for _, wire := range topWireOrder(tp, k.seed)[:k.failed] {
					v.FailWire(wire)
				}
				return v, nil
			})
		}
		if err != nil {
			return err
		}
		cells[i] = c
		g.off[i+1] = g.off[i] + width
	}
	g.keys, g.index = nil, nil
	backends := map[measure]evaluate.Evaluator{
		measureAnalytic: evaluate.NewAnalytic(g.opt.Cache),
		// One venus backend per grid: its crossbar-reference memo is
		// shared across schemes (deterministic values, so sharing
		// cannot perturb results).
		measureVenus: evaluate.NewVenus(g.opt.Cache, venus.Config{}),
	}
	g.flat = make([]float64, g.off[len(cells)])
	return g.opt.withDefaults().run(len(cells), func(i int) error {
		return g.score(cells[i], &in, backends, g.value(i))
	})
}

// newReplay lowers an application workload into its trace and replays
// that once on the crossbar.
func newReplay(wl workload) (*replay, error) {
	app, err := AppByName(wl.name)
	if err != nil {
		return nil, err
	}
	tr, err := app.Trace(wl.bytes)
	if err != nil {
		return nil, err
	}
	ref, err := dimemas.ReplayOnCrossbar(tr, replayConfig)
	return &replay{tr, ref}, err
}

// score computes one cell into out. Colored is built in the cell that
// scores it: the optimizer is deterministic in (topology, phases,
// seed).
func (g *grid) score(c cell, in *inputs, backends map[measure]evaluate.Evaluator, out []float64) error {
	tp, scheme := g.topos.vals[c.topo], in.schemes.vals[c.scheme]
	var phases []*pattern.Pattern
	if c.measure != measureCensus {
		phases = in.phases.vals[c.phases]
	}
	var algo core.Algorithm
	var err error
	switch {
	case c.measure == measureAdaptive:
		out[0], err = venus.MeasuredPhasedSlowdownAdaptive(tp, phases, venus.DefaultConfig())
		return err
	case scheme == unbalancedNCAUp:
		algo = core.NewUnbalancedNCAUp(tp, c.seed)
	default:
		if algo, err = core.NewByName(scheme, tp, c.seed, phases); err != nil {
			return err
		}
	}
	switch c.measure {
	case measureCensus:
		for root, n := range core.AllPairsNCACensus(tp, algo) {
			out[root] = float64(n)
		}
	case measureDegraded:
		out[0], out[1], err = degradedSlowdown(g.opt.Cache, tp, in.views.vals[c.input], algo, phases)
	case measureReplay:
		rp := in.replays.vals[c.input]
		net, err := dimemas.Replay(rp.tr, tp, algo, replayConfig)
		if err != nil {
			return err
		}
		out[0] = 1
		if rp.ref != 0 {
			out[0] = float64(net) / float64(rp.ref)
		}
	default:
		var res evaluate.Result
		res, err = backends[c.measure].Score(tp, algo, phases)
		out[0] = res.Slowdown
	}
	return err
}

// A Batch scores several sweeps on one grid. Each sweep method
// declares the sweep's cells and returns a function that builds its
// rows once Run has returned nil; a cell two sweeps declare is scored
// once. The package's sweep functions are each a Batch of one.
type Batch struct{ *grid }

// NewBatch starts an empty batch. opt's Parallelism, Progress and
// Cache apply to the whole run; each sweep applies its own defaults to
// the rest.
func NewBatch(opt Options) *Batch {
	return &Batch{&grid{opt: opt, index: map[cellKey]int{}}}
}

// Run scores every distinct declared cell once, reporting progress
// over the whole batch. A batch runs once: declare every sweep first.
func (b *Batch) Run() error { return b.run() }

// single runs one sweep as a batch of its own.
func single[T any](opt Options, declare func(*Batch) (func() T, error)) (T, error) {
	b := NewBatch(opt)
	rows, err := declare(b)
	if err == nil {
		err = b.Run()
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return rows(), nil
}

// runCells executes fn(0..n-1) on a pool of the given width, invoking
// progress (if non-nil) after each completed cell with monotonically
// increasing done counts, and returning the error of the
// lowest-indexed failing cell.
func runCells(n, workers int, progress func(done, total int), fn func(i int) error) error {
	workers = max(1, min(workers, n))
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
