package core

import (
	"fmt"

	"repro/internal/hashutil"
	"repro/internal/xgft"
)

// relabelFamily implements the paper's §VIII proposal: a recursive,
// per-subtree balanced random relabeling of the guide digits. At
// switch level l the up-port is F(l, subtree)(digit), where F is an
// independent balanced random map [0, m) -> [0, w_{l+1}) drawn per
// (level, enclosing subtree): every port value receives either
// floor(m/w) or ceil(m/w) guide-digit values, so load on the NCAs is
// as even as the radices allow, while all flows guided by the same
// endpoint still share one path (concentrating endpoint contention
// exactly like S-mod-k / D-mod-k).
//
// Replacing F by the modulo function recovers S-mod-k / D-mod-k, which
// the paper notes become particular cases of the family: they are this
// type drawn with fillModuloMap. Every endpoint-guided scheme of the
// package is one, so its ascent depends on the guide leaf (the source
// when useSource, else the destination) and the NCA level alone.
type relabelFamily struct {
	topo      *xgft.Topology
	useSource bool
	name      string
	cacheKey  string

	prodM []int // prodM[j] = m_1*...*m_j: leaf-digit place values

	// ports[lvl] is the relabeling at switch level lvl, every subtree's
	// map laid end to end: the map of subtree prefix occupies
	// [prefix*m, (prefix+1)*m), so the entry for a leaf is at
	// prefix*m + digit = leaf / prodM[guideDigit(lvl)]. Built once by
	// the constructor and never written again: Route needs no lock.
	ports [][]int32
}

// NewSModK returns the source-mod-k self-routing scheme of the early
// fat-tree literature (§V): the up-port at switch level l is source
// label digit l-1 modulo w_{l+1}, so every source is assigned a unique
// ascending path regardless of the destination, concentrating
// source-side endpoint contention.
func NewSModK(t *xgft.Topology) Algorithm {
	return newModK(t, true, "s-mod-k")
}

// NewDModK returns the destination-mod-k scheme: the same digits of
// the destination's label, so every destination is assigned a unique
// descending path regardless of the source, concentrating
// destination-side endpoint contention.
func NewDModK(t *xgft.Topology) Algorithm {
	return newModK(t, false, "d-mod-k")
}

// newModK is the family under the modulo map. Its routes are a pure
// function of the topology, so the name alone is its cache key.
func newModK(t *xgft.Topology, useSource bool, name string) *relabelFamily {
	f := newRelabelFamily(t, 0, useSource, name, fillModuloMap)
	f.cacheKey = name
	return f
}

// fillModuloMap is the map mod-k relabels by: digit d to port d mod w.
func fillModuloMap(vals []int32, w int, _ uint64) {
	for d := range vals {
		vals[d] = int32(d % w)
	}
}

// NewRandomNCAUp returns the paper's "Random NCA Up" (r-NCA-u)
// algorithm: the relabeled guide digits of the *source* steer the
// ascent, concentrating source-side endpoint contention on the way up
// while distributing responsibilities over the roots at random.
func NewRandomNCAUp(t *xgft.Topology, seed uint64) Algorithm {
	return newRelabelFamily(t, seed, true, "r-NCA-u", fillBalancedMap)
}

// NewRandomNCADown returns "Random NCA Down" (r-NCA-d): the relabeled
// guide digits of the *destination* steer the route, concentrating
// destination-side endpoint contention on the way down.
func NewRandomNCADown(t *xgft.Topology, seed uint64) Algorithm {
	return newRelabelFamily(t, seed, false, "r-NCA-d", fillBalancedMap)
}

// newRelabelFamily draws one map [0, m) -> [0, w) per (switch level,
// enclosing subtree) with fill, from a deterministic stream keyed by
// (seed, level, subtree prefix), so tables are reproducible from the
// seed alone and name plus seed is the cache key (the unbalanced
// ablation has its own name, so the two never alias).
func newRelabelFamily(t *xgft.Topology, seed uint64, useSource bool, name string, fill func(vals []int32, w int, key uint64)) *relabelFamily {
	f := &relabelFamily{
		topo:      t,
		useSource: useSource,
		name:      name,
		cacheKey:  fmt.Sprintf("%s/%#x", name, seed),
		prodM:     make([]int, t.Height()+1),
		ports:     make([][]int32, t.Height()),
	}
	f.prodM[0] = 1
	for j := 0; j < t.Height(); j++ {
		f.prodM[j+1] = f.prodM[j] * t.M(j)
	}
	for lvl := range f.ports {
		m := t.M(guideDigit(lvl))
		f.ports[lvl] = make([]int32, t.Leaves()/f.prodM[guideDigit(lvl)])
		if t.W(lvl) == 1 {
			continue // one port: every map is all zeros
		}
		for prefix := 0; prefix*m < len(f.ports[lvl]); prefix++ {
			fill(f.ports[lvl][prefix*m:(prefix+1)*m], t.W(lvl), mix(seed, uint64(lvl), uint64(prefix)))
		}
	}
	return f
}

func (f *relabelFamily) Name() string { return f.name }

// CacheKey marks the family's routes as memoizable: its maps are fixed
// by the topology and the key.
func (f *relabelFamily) CacheKey() string { return f.cacheKey }

func (f *relabelFamily) Route(src, dst int) xgft.Route {
	var buf [xgft.MaxHeight]int
	return ownedRoute(src, dst, f.ascentInto(src, dst, buf[:0]))
}

// ascentInto is the first NCALevel(src, dst) ports of the guide leaf's
// full-height ascent: every route of the family, table and census
// alike, comes out of guideAscent.
func (f *relabelFamily) ascentInto(src, dst int, up []int) []int {
	guide := src
	if !f.useSource {
		guide = dst
	}
	l := f.topo.NCALevel(src, dst)
	return f.guideAscent(guide, up)[:len(up)+l]
}

// guideAscent appends the leaf's full-height ascent, level 0 first: the
// ports every route the leaf guides takes, up to its NCA level.
func (f *relabelFamily) guideAscent(leaf int, up []int) []int {
	for lvl := range f.ports {
		up = append(up, f.portAt(lvl, leaf))
	}
	return up
}

// GuideAscent is the one accessor of the endpoint-guided schemes —
// S-/D-mod-k and the relabeling family, one type: it appends the
// full-height ascent of a guide leaf to up, level 0 first, and reports
// whether the guide is the source (else the destination). The route of
// every pair whose guide is leaf and whose NCA level is l is that
// ascent's first l ports, so a route store or a census can hold h ports
// a leaf instead of a route a pair. ok is false, and up is returned
// unchanged, for any other scheme; leaf must be in [0, Leaves()).
func GuideAscent(a Algorithm, leaf int, up []int) (ascent []int, bySource, ok bool) {
	f, ok := a.(*relabelFamily)
	if !ok {
		return up, false, false
	}
	return f.guideAscent(leaf, up), f.useSource, true
}

// portAt evaluates the relabeled guide digit of the given leaf at a
// switch level: the map of the leaf's enclosing subtree applied to the
// leaf's plain guide digit.
func (f *relabelFamily) portAt(lvl, guide int) int {
	return int(f.ports[lvl][guide/f.prodM[guideDigit(lvl)]])
}

// fillBalancedMap draws a uniformly random balanced surjection-like
// map from [0,m) to [0,w) into vals (m = len(vals)): value v appears
// floor(m/w)+1 times if v < m mod w, else floor(m/w) times (or, when
// w > m, a random injection). The multiset of values is fixed; only
// the assignment to digits is shuffled (Fisher-Yates over the keyed
// splitmix64 stream).
func fillBalancedMap(vals []int32, w int, key uint64) {
	m := len(vals)
	// order is the port permutation both branches shuffle.
	order := make([]int32, w)
	for i := range order {
		order[i] = int32(i)
	}
	state := key
	if w >= m {
		// Injection: choose m distinct ports via a partial shuffle of
		// [0, w).
		for i := 0; i < m; i++ {
			state = splitmix64(state)
			j := i + uniform(state, w-i)
			order[i], order[j] = order[j], order[i]
		}
		copy(vals, order[:m])
		return
	}
	base := m / w
	extra := m % w
	// Randomize which ports receive the extra preimage, then which
	// digits map to which port; both matter for balancing load across
	// the roots of slimmed trees (Fig. 4b).
	for i := w - 1; i > 0; i-- {
		state = splitmix64(state)
		j := uniform(state, i+1)
		order[i], order[j] = order[j], order[i]
	}
	i := 0
	for rank, v := range order {
		reps := base
		if rank < extra {
			reps++
		}
		for r := 0; r < reps; r++ {
			vals[i] = v
			i++
		}
	}
	for i := m - 1; i > 0; i-- {
		state = splitmix64(state)
		j := uniform(state, i+1)
		vals[i], vals[j] = vals[j], vals[i]
	}
}

// RelabeledDigit exposes the relabeled guide digit for tests and
// analysis tools: the port the family would take at the given switch
// level for a leaf.
func RelabeledDigit(a Algorithm, lvl, leaf int) (int, bool) {
	f, ok := a.(*relabelFamily)
	if !ok {
		return 0, false
	}
	return f.portAt(lvl, leaf), true
}

// The unbalanced family is the ablation of the balanced-map design
// choice (§VIII: "if we give labels based solely on the children per
// level parameters and then try to use a modulo function ... we will
// create an unbalance"): each guide digit maps to an independent
// *uniform* random port instead of a balanced assignment. Endpoint
// contention is still concentrated (the map is a pure function of the
// endpoint), but root load is only balanced in expectation — the
// configuration the paper argues against. It is the same family with
// differently drawn maps. Used by ablation tests and benchmarks.

// NewUnbalancedNCAUp is r-NCA-u with the balanced maps replaced by
// uniform random maps — the ablation baseline for the paper's
// balancing argument.
func NewUnbalancedNCAUp(t *xgft.Topology, seed uint64) Algorithm {
	return newRelabelFamily(t, seed, true, "u-NCA-u", fillUniformMap)
}

// NewUnbalancedNCADown is the destination-guided counterpart.
func NewUnbalancedNCADown(t *xgft.Topology, seed uint64) Algorithm {
	return newRelabelFamily(t, seed, false, "u-NCA-d", fillUniformMap)
}

// fillUniformMap draws each digit's port as an independent uniform
// hash of (seed, level, subtree, digit) — same concentration, no
// balancing.
func fillUniformMap(vals []int32, w int, key uint64) {
	for digit := range vals {
		vals[digit] = int32(uniform(hashutil.Fold(key, uint64(digit)), w))
	}
}
