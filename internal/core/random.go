package core

import (
	"fmt"

	"repro/internal/hashutil"
	"repro/internal/xgft"
)

// randomNCA implements the static Random routing of Greenberg &
// Leiserson (and the Myrinet/InfiniBand default the paper describes):
// every (source, destination) pair is assigned an independently,
// uniformly chosen NCA. The choice is a pure hash of
// (seed, src, dst, level), so the scheme is a static table — the same
// pair always uses the same path — yet different seeds give the
// independent samples used for the paper's boxplots.
type randomNCA struct {
	topo *xgft.Topology
	seed uint64
	key  uint64 // mix(seed): the hash state a pair's values fold into
}

// NewRandom returns the static Random routing scheme for the topology.
func NewRandom(t *xgft.Topology, seed uint64) Algorithm {
	return &randomNCA{topo: t, seed: seed, key: mix(seed)}
}

func (r *randomNCA) Name() string { return "random" }

// CacheKey marks Random routes as memoizable: they are a pure hash of
// (seed, pair), so the seed identifies the whole table.
func (r *randomNCA) CacheKey() string { return fmt.Sprintf("random/%#x", r.seed) }

func (r *randomNCA) Route(src, dst int) xgft.Route {
	var buf [xgft.MaxHeight]int
	return ownedRoute(src, dst, r.ascentInto(src, dst, buf[:0]))
}

// ascentInto is portsInto up to the pair's NCA level.
func (r *randomNCA) ascentInto(src, dst int, up []int) []int {
	return r.portsInto(r.source(src), dst, r.topo.NCALevel(src, dst), up)
}

// source is the hash state of a source leaf: the seed's with src
// folded in, which a caller visiting many destinations of one source
// takes once.
func (r *randomNCA) source(src int) uint64 { return hashutil.Fold(r.key, uint64(src)) }

// portsInto appends the first l up-ports toward dst from the source
// whose hash state is from (see source): port uniform(mix(seed, src,
// dst, lvl), w) at level lvl. mix folds its values in order, so the
// seed is hashed once at construction, the source once per source, the
// destination once per pair, and a level costs one round more;
// one-port levels draw nothing.
func (r *randomNCA) portsInto(from uint64, dst, l int, up []int) []int {
	pair := hashutil.Fold(from, uint64(dst))
	for lvl := 0; lvl < l; lvl++ {
		port := 0
		if w := r.topo.W(lvl); w > 1 {
			port = uniform(splitmix64(pair^uint64(lvl)), w)
		}
		up = append(up, port)
	}
	return up
}
