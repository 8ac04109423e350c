package contention

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/hashutil"
	"repro/internal/xgft"
)

// The map-keyed verifier the dense one replaced, kept as the oracle of
// the differential test below: same edges, same sorted DFS roots, same
// error text, over Go maps keyed by dirChannel structs.

// dirChannel identifies a directed channel: wire ID plus direction.
type dirChannel struct {
	wire int
	up   bool
}

// oracleVerify checks the dependency graph of routes given as the
// directed channels each traverses, in path order.
func oracleVerify(paths [][]dirChannel) error {
	adj := make(map[dirChannel][]dirChannel)
	seenEdge := make(map[[2]dirChannel]bool)
	for _, path := range paths {
		for i := 1; i < len(path); i++ {
			e := [2]dirChannel{path[i-1], path[i]}
			if !seenEdge[e] {
				seenEdge[e] = true
				adj[e[0]] = append(adj[e[0]], e[1])
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[dirChannel]int)
	type frame struct {
		node dirChannel
		next int
	}
	starts := make([]dirChannel, 0, len(adj))
	for start := range adj {
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool {
		if starts[i].wire != starts[j].wire {
			return starts[i].wire < starts[j].wire
		}
		return !starts[i].up && starts[j].up
	})
	for _, start := range starts {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: start}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				child := adj[f.node][f.next]
				f.next++
				switch color[child] {
				case white:
					color[child] = gray
					stack = append(stack, frame{node: child})
				case gray:
					return fmt.Errorf("contention: channel dependency cycle through wire %d (%s) and wire %d (%s)",
						f.node.wire, dirName(f.node.up), child.wire, dirName(child.up))
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// routePaths lowers routes to channel paths through Route.Walk, the
// way the map verifier read them.
func routePaths(t *xgft.Topology, routes []xgft.Route) [][]dirChannel {
	paths := make([][]dirChannel, len(routes))
	for i, r := range routes {
		r.Walk(t, func(_, _, _, wire int, up bool) {
			paths[i] = append(paths[i], dirChannel{wire: wire, up: up})
		})
	}
	return paths
}

func sameVerdict(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestDenseVerifierMatchesMapOracle drives both implementations with
// the same keyed-random inputs: route sets on random XGFTs (always
// acyclic) through the public entry point, and random channel paths
// (mostly cyclic) through the path entry point. Verdict and error text
// must agree on every one.
func TestDenseVerifierMatchesMapOracle(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		rng := hashutil.NewStream(hashutil.Mix(0xcd9, seed))
		h := 1 + rng.Intn(3)
		m, w := make([]int, h), make([]int, h)
		for i := range m {
			m[i], w[i] = 1+rng.Intn(4), 1+rng.Intn(4)
		}
		tp, err := xgft.New(h, m, w)
		if err != nil {
			t.Fatal(err)
		}
		n := tp.Leaves()
		var routes []xgft.Route
		for i := 0; i < 20+rng.Intn(200); i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			up := make([]int, tp.NCALevel(s, d))
			for j := range up {
				up[j] = rng.Intn(tp.W(j))
			}
			routes = append(routes, xgft.Route{Src: s, Dst: d, Up: up})
		}
		got, want := VerifyDeadlockFree(tp, routes), oracleVerify(routePaths(tp, routes))
		if want != nil || !sameVerdict(got, want) {
			t.Fatalf("seed %d, %s, %d routes: dense %v, oracle %v (want both nil)", seed, tp, len(routes), got, want)
		}
	}
	cyclic := 0
	for seed := uint64(0); seed < 300; seed++ {
		rng := hashutil.NewStream(hashutil.Mix(0xc7c, seed))
		wires := 2 + rng.Intn(12)
		g := newCDG(2 * wires)
		var paths [][]dirChannel
		for i := 0; i < 1+rng.Intn(3*wires); i++ {
			var dense []int32
			var path []dirChannel
			for j := 0; j < 2+rng.Intn(4); j++ {
				wire, up := rng.Intn(wires), rng.Intn(2)
				dense = append(dense, int32(2*wire+up))
				path = append(path, dirChannel{wire: wire, up: up == 1})
			}
			if err := g.addPath(dense); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
		got, want := g.verify(), oracleVerify(paths)
		if !sameVerdict(got, want) {
			t.Fatalf("seed %d, paths %v: dense %v, oracle %v", seed, paths, got, want)
		}
		if want != nil {
			cyclic++
		}
	}
	if cyclic < 100 || cyclic > 290 {
		t.Errorf("%d of 300 random path sets were cyclic; the generator should exercise both verdicts", cyclic)
	}
}
