package contention

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// PhaseBoundsCached returns the per-phase completion bounds (in bytes) on
// the topology and on the crossbar — the one phase loop behind every
// algorithm-based analytic score (Slowdown, PhasedSlowdown, the
// analytic evaluator) and the phase-resolved reporting of Fig. 3's
// "fifth phase takes eight times longer" analysis. A memoizable
// algorithm's tables are served from (and stored into) a non-nil
// cache; every other table is routed into pooled scratch that the next
// phase and the next call reuse, and so are the loads the phases are
// counted in. Only the two returned slices are the call's own.
func PhaseBoundsCached(c *core.TableCache, t *xgft.Topology, algo core.Algorithm, phases []*pattern.Pattern) (network, crossbar []int64, err error) {
	network = make([]int64, len(phases))
	crossbar = make([]int64, len(phases))
	_, memoizable := algo.(core.CacheKeyer)
	cached := c != nil && memoizable
	sc := scratchPool.Get().(*boundScratch)
	defer scratchPool.Put(sc)
	for i, p := range phases {
		var routes []xgft.Route
		if cached {
			tbl, err := c.Build(t, algo, p)
			if err != nil {
				return nil, nil, err
			}
			routes = tbl.Routes
		} else {
			sc.routes, sc.arena, err = core.RouteFlows(t, algo, p, sc.routes, sc.arena)
			if err != nil {
				return nil, nil, err
			}
			routes = sc.routes
		}
		if err := sc.loads.refill(t, p, routes); err != nil {
			return nil, nil, err
		}
		network[i], crossbar[i] = sc.loads.CompletionBound(), sc.loads.CrossbarBound()
	}
	return network, crossbar, nil
}

// boundScratch is what PhaseBoundsCached routes and counts a phase in.
type boundScratch struct {
	routes []xgft.Route
	arena  []int
	loads  Loads
}

// scratchPool hands each concurrent PhaseBoundsCached call its own
// boundScratch, warm from an earlier call.
var scratchPool = sync.Pool{New: func() any { return new(boundScratch) }}

// Ratio normalizes a completion bound against its crossbar reference
// (the paper's normalization, §VI-B); a pattern without network traffic
// scores 1. The result is >= 1 up to floating-point for any minimal
// routing.
func Ratio(network, crossbar int64) float64 {
	if crossbar == 0 {
		return 1
	}
	return float64(network) / float64(crossbar)
}

// Slowdown computes the analytic slowdown of one communication phase
// under a routing algorithm: the congestion completion bound on the
// topology divided by the same bound on the ideal full crossbar.
func Slowdown(t *xgft.Topology, algo core.Algorithm, p *pattern.Pattern) (float64, error) {
	return PhasedSlowdown(t, algo, []*pattern.Pattern{p})
}

// PhasedSlowdown computes the slowdown of a sequence of dependent
// communication phases (e.g. CG's five exchanges): total bound over
// the phases divided by the total crossbar bound. Phases are assumed
// separated by synchronization, so their times add.
func PhasedSlowdown(t *xgft.Topology, algo core.Algorithm, phases []*pattern.Pattern) (float64, error) {
	if len(phases) == 0 {
		return 0, fmt.Errorf("contention: no phases")
	}
	network, crossbar, err := PhaseBoundsCached(nil, t, algo, phases)
	if err != nil {
		return 0, err
	}
	var net, xb int64
	for i := range phases {
		net += network[i]
		xb += crossbar[i]
	}
	return Ratio(net, xb), nil
}
