package contention

import (
	"maps"
	"testing"

	"repro/internal/contention/oracle"
	"repro/internal/hashutil"
	"repro/internal/xgft"
)

func sameVerdict(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// edgesOf lists the graph's dependencies as (from, to) directed
// channels, 2*wire+1 for up.
func edgesOf(g *cdg) map[[2]int32]bool {
	out := map[[2]int32]bool{}
	for a := range g.head {
		for e := g.head[a]; e >= 0; e = g.next[e] {
			out[[2]int32{int32(a), g.to[e]}] = true
		}
	}
	return out
}

// oracleEdges lists the dependencies of the routes as the oracle lowers
// them, in edgesOf's numbering.
func oracleEdges(tp *xgft.Topology, routes []xgft.Route) map[[2]int32]bool {
	dense := func(c oracle.Channel) int32 {
		if c.Up {
			return int32(2*c.Wire + 1)
		}
		return int32(2 * c.Wire)
	}
	out := map[[2]int32]bool{}
	for _, r := range routes {
		path := oracle.Lower(tp, r)
		for i := 1; i < len(path); i++ {
			out[[2]int32{dense(path[i-1]), dense(path[i])}] = true
		}
	}
	return out
}

// TestDenseVerifierMatchesMapOracle drives both implementations with
// the same keyed-random inputs: route sets on random XGFTs (always
// acyclic) through the public entry point, and random channel paths
// (mostly cyclic) through the path entry point. Verdict and error text
// must agree on every one, and on the route sets the dense graph must
// hold exactly the dependencies the oracle's own lowering names: an
// acyclic verdict alone does not see a descent linked in the wrong
// order.
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
		got, want := VerifyDeadlockFree(tp, routes), oracle.VerifyRoutes(tp, routes)
		if want != nil || !sameVerdict(got, want) {
			t.Fatalf("seed %d, %s, %d routes: dense %v, oracle %v (want both nil)", seed, tp, len(routes), got, want)
		}
		c, err := NewCertifier(tp)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range routes {
			if err := c.Add(r.Src, r.Dst, r.Up); err != nil {
				t.Fatal(err)
			}
		}
		gotEdges, wantEdges := edgesOf(c.g), oracleEdges(tp, routes)
		if !maps.Equal(gotEdges, wantEdges) {
			t.Fatalf("seed %d, %s, %d routes: the dense graph has %d dependencies, the oracle's lowering %d, and they differ",
				seed, tp, len(routes), len(gotEdges), len(wantEdges))
		}
	}
	cyclic := 0
	for seed := uint64(0); seed < 300; seed++ {
		rng := hashutil.NewStream(hashutil.Mix(0xc7c, seed))
		wires := 2 + rng.Intn(12)
		g := newCDG(2 * wires)
		var paths [][]oracle.Channel
		for i := 0; i < 1+rng.Intn(3*wires); i++ {
			var dense []int32
			var path []oracle.Channel
			for j := 0; j < 2+rng.Intn(4); j++ {
				wire, up := rng.Intn(wires), rng.Intn(2)
				dense = append(dense, int32(2*wire+up))
				path = append(path, oracle.Channel{Wire: wire, Up: up == 1})
			}
			if err := g.addPath(dense); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
		got, want := g.verify(), oracle.Verify(paths)
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
