package evaluate

import (
	"fmt"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// analytic scores with the congestion completion bound of
// internal/contention normalized against the ideal full crossbar —
// the paper's §VI-B analytic model. Phase times add: dependent phases
// sum their bounds before normalizing.
type analytic struct {
	cache *core.TableCache
}

// NewAnalytic returns the analytic-bound backend. Routing tables are
// served from the cache when the algorithm is memoizable; a nil cache
// recomputes.
func NewAnalytic(cache *core.TableCache) Evaluator { return &analytic{cache: cache} }

func (*analytic) Name() string { return Analytic }

func (a *analytic) Score(t *xgft.Topology, algo core.Algorithm, phases []*pattern.Pattern) (Result, error) {
	if len(phases) == 0 {
		return Result{}, fmt.Errorf("evaluate: no phases")
	}
	network, crossbar, err := contention.PhaseBoundsCached(a.cache, t, algo, phases)
	if err != nil {
		return Result{}, err
	}
	res := Result{PerPhase: make([]float64, len(phases)), Cost: Cost{Tables: len(phases)}}
	var net, xb int64
	for i := range phases {
		net += network[i]
		xb += crossbar[i]
		res.PerPhase[i] = contention.Ratio(network[i], crossbar[i])
	}
	res.Slowdown = contention.Ratio(net, xb)
	return res, nil
}

func (a *analytic) ScoreRoutes(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route) (Result, error) {
	l, err := contention.ByteLoads(t, p, routes)
	if err != nil {
		return Result{}, err
	}
	s := contention.Ratio(l.CompletionBound(), l.CrossbarBound())
	return Result{Slowdown: s, PerPhase: []float64{s}}, nil
}
