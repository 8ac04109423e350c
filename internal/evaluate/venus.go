package evaluate

import (
	"fmt"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/memo"
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
	// run), up to 256 of them.
	crossbar *memo.Cache[core.PatternKey, eventq.Time]
}

// MaxVenusSegments caps the segments one simulated phase may inject,
// Σ⌈bytes/SegmentBytes⌉ over its flows: a simulation runs in time
// linear in them, and fabricd scores while it holds its scheduler's and
// fabric's locks. The largest phase a sweep or an experiments mode
// scores through this backend, WRF-256 at its 512 KiB paper size
// (`experiments point -app wrf -engine venus`), is 245 760 segments.
const MaxVenusSegments = 1 << 20

// ErrTooManySegments, wrapped, refuses a phase over MaxVenusSegments:
// the size of what was asked for, not a fault of the scorer.
var ErrTooManySegments = fmt.Errorf("over the %d segments a simulation may inject", MaxVenusSegments)

// NewVenus returns the simulation backend. cfg's zero value selects
// venus.DefaultConfig(); the cache serves routing-table builds for
// algorithm-based scoring.
func NewVenus(cache *core.TableCache, cfg venus.Config) Evaluator {
	if cfg == (venus.Config{}) {
		cfg = venus.DefaultConfig()
	}
	describe := func(core.PatternKey) string { return "evaluate: venus crossbar reference run" }
	return &venusEval{cache: cache, cfg: cfg, crossbar: memo.New[core.PatternKey, eventq.Time](256, describe)}
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
// crossbar reference, returning both makespans. Crossbar times are
// memoized on the pattern's content; a call served from the memo adds
// no events (no simulation ran in it).
func (v *venusEval) phaseTimes(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route, cost *Cost) (net, ref eventq.Time, err error) {
	seg, segs := int64(v.cfg.SegmentBytes), int64(0)
	for _, f := range p.Flows {
		// A zero-byte message still sends a header segment.
		if segs += max(1, f.Bytes/seg+min(1, f.Bytes%seg)); segs > MaxVenusSegments {
			return 0, 0, ErrTooManySegments
		}
	}
	net, events, err := venus.RunRoutes(t, p, routes, v.cfg)
	if err != nil {
		return 0, 0, err
	}
	cost.SimEvents += events
	ref, _, err = v.crossbar.Get(core.KeyPattern(p), func() (eventq.Time, error) {
		xb, err := xgft.NewFullCrossbar(p.N)
		if err != nil {
			return 0, err
		}
		algo := core.NewSModK(xb)
		routes := make([]xgft.Route, len(p.Flows))
		for i, f := range p.Flows {
			routes[i] = algo.Route(f.Src, f.Dst)
		}
		d, events, err := venus.RunRoutes(xb, p, routes, v.cfg)
		if err != nil {
			return 0, fmt.Errorf("crossbar reference: %w", err)
		}
		cost.SimEvents += events
		return d, nil
	})
	return net, ref, err
}
