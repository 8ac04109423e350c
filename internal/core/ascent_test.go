package core

import (
	"reflect"
	"testing"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

// obliviousSchemes lists every scheme that computes its ascent into a
// caller's buffer.
func obliviousSchemes(tp *xgft.Topology) []Algorithm {
	return []Algorithm{
		NewSModK(tp), NewDModK(tp), NewRandom(tp, 7),
		NewRandomNCAUp(tp, 7), NewRandomNCADown(tp, 7),
		NewUnbalancedNCAUp(tp, 7), NewUnbalancedNCADown(tp, 7),
	}
}

// ascentTrees are the shapes the buffer path and the per-guide census
// are held to the oracle on: the paper's slimmed two-level tree, a
// slimmed three-level one, where subtree prefixes and guide digits stop
// coinciding, a tree whose top level has one child (no pair reaches a
// root), a one-level tree, and one with more parents than children.
func ascentTrees(t *testing.T) []*xgft.Topology {
	t.Helper()
	return []*xgft.Topology{
		paperTree(t, 10),
		xgft.MustNew(3, []int{4, 3, 5}, []int{1, 2, 3}),
		xgft.MustNew(2, []int{4, 1}, []int{1, 3}),
		xgft.MustNew(1, []int{6}, []int{4}),
		xgft.MustNew(2, []int{3, 4}, []int{2, 5}),
	}
}

// routeOnly hides everything but the Algorithm interface, the way an
// implementation from outside the package looks to BuildTable and the
// census, and counts the Route calls it answers.
type routeOnly struct {
	Algorithm
	calls int
}

func (r *routeOnly) Route(src, dst int) xgft.Route {
	r.calls++
	return r.Algorithm.Route(src, dst)
}

// ncaLevelByDigits is xgft's NCALevel as the digit-wise loop it was
// first written as (xgft's tests hold the two equal), so the census
// oracle shares no code with the census it checks.
func ncaLevelByDigits(tp *xgft.Topology, s, d int) int {
	level := 0
	for j := 0; j < tp.Height(); j++ {
		base := tp.M(j)
		if s%base != d%base {
			level = j + 1
		}
		s /= base
		d /= base
	}
	return level
}

// censusByRoute is the census as it was before the buffer path: one
// Route per pair, the root found by walking the ascent from the source.
func censusByRoute(tp *xgft.Topology, algo Algorithm) []int {
	counts := make([]int, tp.NodesAt(tp.Height()))
	for s := 0; s < tp.Leaves(); s++ {
		for d := 0; d < tp.Leaves(); d++ {
			if ncaLevelByDigits(tp, s, d) != tp.Height() {
				continue
			}
			_, idx := algo.Route(s, d).NCA(tp)
			counts[idx]++
		}
	}
	return counts
}

// TestCensusBufferPathMatchesRoutePerPair holds the census of every
// oblivious scheme — per guide leaf for the six endpoint-guided ones,
// per pair for Random — and of the same schemes behind a foreign type
// to one Route per pair.
func TestCensusBufferPathMatchesRoutePerPair(t *testing.T) {
	for _, tp := range ascentTrees(t) {
		for _, algo := range obliviousSchemes(tp) {
			if _, ok := algo.(ascender); !ok {
				t.Fatalf("%s does not compute its ascent into a buffer", algo.Name())
			}
			if _, ok := algo.(*relabelFamily); ok == (algo.Name() == "random") {
				t.Fatalf("%s: guided %v, want a guide leaf for every scheme but Random", algo.Name(), ok)
			}
			want := censusByRoute(tp, algo)
			if tp.M(tp.Height()-1) == 1 {
				for _, c := range want {
					if c != 0 {
						t.Fatalf("%s on %s: census %v, want no pair at a root", algo.Name(), tp, want)
					}
				}
			}
			if got := AllPairsNCACensus(tp, algo); !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: buffered census %v, Route-per-pair %v", algo.Name(), tp, got, want)
			}
			foreign := &routeOnly{Algorithm: algo}
			if got := AllPairsNCACensus(tp, foreign); !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s behind a foreign type: census %v, want %v", algo.Name(), tp, got, want)
			}
			top := 0
			for _, c := range want {
				top += c
			}
			if foreign.calls != top {
				t.Errorf("%s on %s: foreign algorithm asked for %d routes, want one per top-level pair (%d)", algo.Name(), tp, foreign.calls, top)
			}
		}
	}
}

// TestCensusCountsEveryRootPair: the census skips each source's own top
// subtree instead of asking every pair for its NCA level, so it must
// still count each of the N·(N − N/m_h) pairs that reach a root exactly
// once, for the guided schemes, Random and Colored alike, and none on a
// tree whose top level has one child. Random, the one oblivious scheme
// asked pair by pair, is held to the N² Route-per-pair oracle too.
func TestCensusCountsEveryRootPair(t *testing.T) {
	for _, tp := range []*xgft.Topology{
		paperTree(t, 10),
		xgft.MustNew(3, []int{4, 4, 4}, []int{1, 2, 2}),
		xgft.MustNew(2, []int{4, 1}, []int{1, 3}),
	} {
		n, h := tp.Leaves(), tp.Height()
		want := n * (n - n/tp.M(h-1))
		phases := []*pattern.Pattern{pattern.KeyedRandomPermutation(n, 4096, 3)}
		for _, algo := range []Algorithm{
			NewRandom(tp, 5), NewSModK(tp), NewDModK(tp),
			NewRandomNCAUp(tp, 5), NewRandomNCADown(tp, 5),
			NewColored(tp, phases, ColoredConfig{}),
		} {
			census := AllPairsNCACensus(tp, algo)
			sum := 0
			for _, c := range census {
				sum += c
			}
			if sum != want {
				t.Errorf("%s on %s: census counts %d pairs, want N(N - N/m_h) = %d", algo.Name(), tp, sum, want)
			}
			if algo.Name() == "random" {
				if oracle := censusByRoute(tp, algo); !reflect.DeepEqual(census, oracle) {
					t.Errorf("random on %s: census %v, Route-per-pair oracle %v", tp, census, oracle)
				}
			}
		}
	}
}

// TestRandomAscentMatchesPerLevelHash pins Random's hoisted pair hash
// to the formula it replaced: the port at every level is
// uniform(mix(seed, src, dst, lvl), w), one-port levels included.
func TestRandomAscentMatchesPerLevelHash(t *testing.T) {
	for _, tp := range []*xgft.Topology{paperTree(t, 10), xgft.MustNew(3, []int{4, 3, 5}, []int{2, 1, 3})} {
		const seed = 7
		algo := NewRandom(tp, seed).(*randomNCA)
		var buf [xgft.MaxHeight]int
		for s := 0; s < tp.Leaves(); s++ {
			for d := 0; d < tp.Leaves(); d++ {
				up := algo.ascentInto(s, d, buf[:0])
				if len(up) != ncaLevelByDigits(tp, s, d) {
					t.Fatalf("%s: ascent %d->%d climbs %d levels, want %d", tp, s, d, len(up), ncaLevelByDigits(tp, s, d))
				}
				for lvl, port := range up {
					if want := uniform(mix(seed, uint64(s), uint64(d), uint64(lvl)), tp.W(lvl)); port != want {
						t.Fatalf("%s: %d->%d level %d port %d, per-level hash %d", tp, s, d, lvl, port, want)
					}
				}
			}
		}
	}
}

func TestBuildTableArenaMatchesRoutePerFlow(t *testing.T) {
	for _, tp := range ascentTrees(t) {
		// Every pair, self-flows included: each NCA level occurs.
		p := &pattern.Pattern{N: tp.Leaves()}
		for s := 0; s < tp.Leaves(); s++ {
			for d := 0; d < tp.Leaves(); d += 3 {
				p.Flows = append(p.Flows, pattern.Flow{Src: s, Dst: d, Bytes: 1})
			}
		}
		for _, algo := range obliviousSchemes(tp) {
			tbl, err := BuildTable(tp, algo, p)
			if err != nil {
				t.Fatal(err)
			}
			foreign := &routeOnly{Algorithm: algo}
			viaRoute, err := BuildTable(tp, foreign, p)
			if err != nil {
				t.Fatal(err)
			}
			if foreign.calls != len(p.Flows) {
				t.Errorf("%s: foreign algorithm asked for %d routes, want %d", algo.Name(), foreign.calls, len(p.Flows))
			}
			for i, f := range p.Flows {
				want := algo.Route(f.Src, f.Dst)
				if !reflect.DeepEqual(tbl.Routes[i], want) || !reflect.DeepEqual(viaRoute.Routes[i], want) {
					t.Fatalf("%s on %s, flow %d: arena %+v, fallback %+v, Route %+v", algo.Name(), tp, i, tbl.Routes[i], viaRoute.Routes[i], want)
				}
			}
		}
	}
}

// TestRoutesAreOwnedByTheirHolder scribbles over and appends to routes
// handed out by Route and by an arena-built table: neither the next
// Route call nor the neighbouring routes of the table may notice.
func TestRoutesAreOwnedByTheirHolder(t *testing.T) {
	tp := paperTree(t, 10)
	p := pattern.WRF256()
	for _, algo := range obliviousSchemes(tp) {
		clean, err := BuildTable(tp, algo, p)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := BuildTable(tp, algo, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tbl.Routes {
			if i%2 == 1 {
				continue
			}
			up := tbl.Routes[i].Up
			grown := append(up, -7, -7, -7)
			for j := range grown {
				grown[j] = -7
			}
			for j := range up {
				up[j] = -7
			}
		}
		for i, f := range p.Flows {
			if i%2 == 1 && !reflect.DeepEqual(tbl.Routes[i], clean.Routes[i]) {
				t.Fatalf("%s: route %d changed to %+v when its neighbours were overwritten", algo.Name(), i, tbl.Routes[i])
			}
			r := algo.Route(f.Src, f.Dst)
			if !reflect.DeepEqual(r, clean.Routes[i]) {
				t.Fatalf("%s: Route(%d,%d) = %+v after table routes were overwritten, want %+v", algo.Name(), f.Src, f.Dst, r, clean.Routes[i])
			}
			for j := range r.Up {
				r.Up[j] = -9
			}
			if again := algo.Route(f.Src, f.Dst); !reflect.DeepEqual(again, clean.Routes[i]) {
				t.Fatalf("%s: Route(%d,%d) = %+v after the previous result was overwritten", algo.Name(), f.Src, f.Dst, again)
			}
		}
	}
}
