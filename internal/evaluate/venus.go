package evaluate

import (
	"fmt"
	"sync"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/pattern"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// venusEval scores by simulation: every phase is injected into the
// event-driven flit-level simulator (internal/venus, the paper's §VI-B
// methodology) at t=0 and run to completion, and the makespan is
// normalized against the same phase simulated on the ideal
// full-crossbar reference. This measures what the analytic bound only
// bounds: segmentation, round-robin interleaving, buffer backpressure
// and head-of-line blocking all count.
type venusEval struct {
	cache *core.TableCache
	cfg   venus.Config

	// Crossbar times depend only on the pattern, not the routing, so
	// they are memoized across Score/ScoreRoutes calls (every candidate
	// scheme scored on the same observed pattern shares one reference
	// run). FIFO-bounded like core.TableCache.
	mu       sync.Mutex
	crossbar map[crossbarKey]eventq.Time
	order    []crossbarKey
}

// crossbarKey keeps the cheap exact pattern invariants alongside the
// fingerprint so a 64-bit collision alone cannot alias two patterns
// (the tableKey design rule).
type crossbarKey struct {
	n       int
	flows   int
	bytes   int64
	pattern uint64
}

// crossbarCapacity bounds the memoized crossbar runs.
const crossbarCapacity = 256

// NewVenus returns the simulation backend. cfg's zero value selects
// venus.DefaultConfig(); the cache serves routing-table builds for
// algorithm-based scoring.
func NewVenus(cache *core.TableCache, cfg venus.Config) Evaluator {
	if cfg == (venus.Config{}) {
		cfg = venus.DefaultConfig()
	}
	return &venusEval{cache: cache, cfg: cfg, crossbar: make(map[crossbarKey]eventq.Time)}
}

func (*venusEval) Name() string { return Venus }

func (v *venusEval) Score(t *xgft.Topology, algo core.Algorithm, phases []*pattern.Pattern) (Result, error) {
	if len(phases) == 0 {
		return Result{}, fmt.Errorf("evaluate: no phases")
	}
	res := Result{PerPhase: make([]float64, len(phases))}
	var network, crossbar int64
	for i, p := range phases {
		tbl, err := v.cache.Build(t, algo, p)
		if err != nil {
			return Result{}, err
		}
		res.Cost.Tables++
		net, ref, err := v.phaseTimes(t, p, tbl.Routes, &res.Cost)
		if err != nil {
			return Result{}, fmt.Errorf("evaluate: venus phase %d: %w", i, err)
		}
		network += int64(net)
		crossbar += int64(ref)
		res.PerPhase[i] = contention.Ratio(int64(net), int64(ref))
	}
	res.Slowdown = contention.Ratio(network, crossbar)
	return res, nil
}

func (v *venusEval) ScoreRoutes(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route) (Result, error) {
	var cost Cost
	net, ref, err := v.phaseTimes(t, p, routes, &cost)
	if err != nil {
		return Result{}, fmt.Errorf("evaluate: venus: %w", err)
	}
	s := contention.Ratio(int64(net), int64(ref))
	return Result{Slowdown: s, PerPhase: []float64{s}, Cost: cost}, nil
}

// phaseTimes simulates one phase under the explicit routes and on the
// crossbar reference, returning both makespans.
func (v *venusEval) phaseTimes(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route, cost *Cost) (net, ref eventq.Time, err error) {
	net, events, err := venus.RunRoutes(t, p, routes, v.cfg)
	if err != nil {
		return 0, 0, err
	}
	cost.SimEvents += events
	ref, events, err = v.crossbarTime(p)
	if err != nil {
		return 0, 0, err
	}
	cost.SimEvents += events
	return net, ref, nil
}

// crossbarTime simulates the pattern on the full-crossbar reference,
// memoized on the pattern's content. Memo hits report zero events (no
// simulation ran).
func (v *venusEval) crossbarTime(p *pattern.Pattern) (eventq.Time, uint64, error) {
	key := crossbarKey{n: p.N, flows: len(p.Flows), bytes: p.TotalBytes(), pattern: p.Fingerprint()}
	v.mu.Lock()
	d, ok := v.crossbar[key]
	v.mu.Unlock()
	if ok {
		return d, 0, nil
	}
	xb, err := xgft.NewFullCrossbar(p.N)
	if err != nil {
		return 0, 0, err
	}
	algo := core.NewSModK(xb)
	routes := make([]xgft.Route, len(p.Flows))
	for i, f := range p.Flows {
		routes[i] = algo.Route(f.Src, f.Dst)
	}
	d, events, err := venus.RunRoutes(xb, p, routes, v.cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("crossbar reference: %w", err)
	}
	v.mu.Lock()
	if _, exists := v.crossbar[key]; !exists {
		for len(v.order) >= crossbarCapacity {
			delete(v.crossbar, v.order[0])
			v.order = v.order[1:]
		}
		v.crossbar[key] = d
		v.order = append(v.order, key)
	}
	v.mu.Unlock()
	return d, events, nil
}
