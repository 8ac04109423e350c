// Package core implements the oblivious routing schemes analyzed and
// proposed by Rodriguez et al. (CLUSTER 2009) for extended generalized
// fat trees: static Random NCA selection, the paper's new
// relabeling-based family (Random NCA Up / Random NCA Down) and the
// classical S-mod-k and D-mod-k self-routing schemes, which are that
// family under the modulo map (§VIII: "particular cases of the
// family"), plus the pattern-aware "Colored" baseline reproducing the
// role of the ICS'09 scheme the paper compares against and the
// LevelWise permutation scheduler.
//
// All algorithms produce, for each (source, destination) leaf pair, a
// minimal route through one of the pair's nearest common ancestors
// (xgft.Route). Oblivious algorithms are pure functions of the pair
// (plus a seed); Colored and LevelWise are functions of whole patterns,
// and their results are FixedTables, the package's one store of
// explicit routes.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// Algorithm computes a static route for every leaf pair. Route must be
// deterministic: calling it twice with the same arguments yields the
// same route (static, pre-computable routing tables). Both endpoints
// must be leaves, in [0, Leaves()): callers check them (RouteFlows
// through fits, the fabric's lookup, venus.RunPattern), and a scheme
// handed a pair off the tree may panic, but never answers with another
// pair's route.
type Algorithm interface {
	// Name identifies the algorithm in reports ("s-mod-k", ...).
	Name() string
	// Route returns the minimal route from src to dst. src == dst
	// yields an empty route (no network traversal).
	Route(src, dst int) xgft.Route
}

// splitmix64 advances the splitmix64 state and returns the next value.
// It is the deterministic keyed stream behind Random and the
// relabeling family, so routing tables are reproducible from a seed
// without storing per-pair state.
func splitmix64(x uint64) uint64 { return hashutil.Splitmix64(x) }

// mix hashes a tuple of values into a well-distributed 64-bit key.
func mix(vals ...uint64) uint64 { return hashutil.Mix(vals...) }

// uniform maps a hash to [0, n) without the bias of a plain modulus
// (multiply-shift reduction).
func uniform(h uint64, n int) int {
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

// Table is a pre-computed routing table: routes for every flow of a
// pattern (the artifact a subnet manager would install). It keeps
// insertion order aligned with the pattern's flow order.
type Table struct {
	Topo   *xgft.Topology
	Algo   string
	Routes []xgft.Route
}

// ascender is what the package's oblivious schemes (mod-k, Random,
// the relabeling family) have in common: the ascent is a formula of
// the pair, so it can be computed into a buffer the caller provides.
// Enumerations over many pairs use it to route without a per-pair
// allocation; an Algorithm that does not implement it — Colored, a
// FixedTable, anything from outside the package — is asked for whole
// Routes instead.
type ascender interface {
	// ascentInto appends the up-ports of the src->dst ascent to up and
	// returns the extended slice; src == dst appends nothing.
	ascentInto(src, dst int, up []int) []int
}

// ownedRoute wraps an ascent computed in a scratch buffer into a Route
// whose Up the caller owns: one allocation of exactly its length.
func ownedRoute(src, dst int, up []int) xgft.Route {
	r := xgft.Route{Src: src, Dst: dst}
	if len(up) > 0 {
		r.Up = make([]int, len(up))
		copy(r.Up, up)
	}
	return r
}

// fits refuses a pattern with more endpoints than the tree has leaves.
func fits(t *xgft.Topology, p *pattern.Pattern) error {
	if p.N > t.Leaves() {
		return fmt.Errorf("core: pattern over %d endpoints does not fit %d leaves", p.N, t.Leaves())
	}
	return nil
}

// BuildTable computes routes for every flow of the pattern into a
// table of its own: RouteFlows into fresh buffers.
func BuildTable(t *xgft.Topology, algo Algorithm, p *pattern.Pattern) (*Table, error) {
	routes, _, err := RouteFlows(t, algo, p, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Table{Topo: t, Algo: algo.Name(), Routes: routes}, nil
}

// RouteFlows routes every flow of the pattern into routes, aligned with
// p.Flows, and returns it together with arena; both are the caller's
// buffers, reused when large enough and grown otherwise, so a caller
// that builds table after table allocates nothing once they are warm.
// A pattern wider than the tree, or a flow with an endpoint off it, is
// refused before any scheme is asked (see Algorithm). Self-flows get
// empty routes; every other route is validated. Ascents
// of the package's oblivious schemes are carved out of arena, each
// capped at its own length so appending to one route's Up cannot reach
// its neighbour's; routes from other algorithms are their own. The
// routes alias arena until the caller passes either buffer in again.
func RouteFlows(t *xgft.Topology, algo Algorithm, p *pattern.Pattern, routes []xgft.Route, arena []int) ([]xgft.Route, []int, error) {
	if err := fits(t, p); err != nil {
		return routes, arena, err
	}
	if cap(routes) < len(p.Flows) {
		routes = make([]xgft.Route, len(p.Flows))
	}
	routes = routes[:len(p.Flows)]
	asc, buffered := algo.(ascender)
	if need := len(p.Flows) * t.Height(); buffered && cap(arena) < need {
		arena = make([]int, 0, need) // never regrown below: routes alias it
	}
	arena = arena[:0]
	n := uint(t.Leaves())
	for i, f := range p.Flows {
		if uint(f.Src) >= n || uint(f.Dst) >= n {
			return routes, arena, fmt.Errorf("core: flow %d (%d->%d) has an endpoint off the %d-leaf tree", i, f.Src, f.Dst, n)
		}
		var r xgft.Route
		if buffered {
			end := len(arena)
			arena = asc.ascentInto(f.Src, f.Dst, arena)
			r = xgft.Route{Src: f.Src, Dst: f.Dst}
			if len(arena) > end {
				r.Up = arena[end:len(arena):len(arena)]
			}
		} else {
			r = algo.Route(f.Src, f.Dst)
		}
		if f.Src != f.Dst {
			if err := r.Validate(t); err != nil {
				return routes, arena, fmt.Errorf("core: %s produced invalid route for flow %d: %w", algo.Name(), i, err)
			}
		}
		routes[i] = r
	}
	return routes, arena, nil
}

// AllPairsNCACensus counts, for every top-ancestor choice, how many of
// the N*(N-1) ordered pairs with NCA at the top level are assigned to
// each root, reproducing the census of the paper's Fig. 4 ("number of
// routes assigned per NCA"). Pairs whose NCA is below the top level do
// not reach a root and are excluded, as in the figure: they are exactly
// the pairs inside one top subtree, N/m_h consecutive leaves, so no
// pair's NCA level is ever computed.
//
// An endpoint-guided scheme (mod-k or the relabeling family: one type,
// see GuideAscent) sends every top-level pair of a guide leaf to the
// root its full-height ascent reaches, so its census is one ascent per
// leaf, weighted by the N - N/m_h peers outside the leaf's top subtree.
// Any other scheme is asked pair by pair, Random for its ports at the
// known top level.
func AllPairsNCACensus(t *xgft.Topology, algo Algorithm) []int {
	h := t.Height()
	counts := make([]int, t.NodesAt(h))
	n := t.Leaves()
	subtree := n / t.M(h-1)
	if subtree == n {
		return counts // m_h = 1: no pair reaches a root
	}
	var buf [xgft.MaxHeight]int
	if _, _, guided := GuideAscent(algo, 0, buf[:0]); guided {
		for leaf := 0; leaf < n; leaf++ {
			// Every digit of a root's label is a W-digit, so the guide's
			// full ascent is the root all its top-level pairs meet at.
			up, _, _ := GuideAscent(algo, leaf, buf[:0])
			counts[t.Index(h, up)] += n - subtree
		}
		return counts
	}
	rnd, random := algo.(*randomNCA)
	for s := 0; s < n; s++ {
		own := s - s%subtree // s's top subtree is [own, own+subtree)
		var from uint64
		if random {
			from = rnd.source(s)
		}
		for d := 0; d < n; d++ {
			if d == own {
				d += subtree - 1
				continue
			}
			var up []int
			if random {
				up = rnd.portsInto(from, d, h, buf[:0])
			} else if up = algo.Route(s, d).Up; len(up) != h {
				continue
			}
			counts[t.Index(h, up)]++
		}
	}
	return counts
}

// guideDigit returns the label digit position that steers the up-port
// choice at the given switch level: the paper's "M_l mod w_{l+1}" uses
// digit l-1 (0-indexed) at level l; the leaf uses digit 0 (w_1 = 1 in
// all of the paper's topologies, so the leaf choice is degenerate).
func guideDigit(level int) int {
	if level == 0 {
		return 0
	}
	return level - 1
}
