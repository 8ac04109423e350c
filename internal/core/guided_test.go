package core

import (
	"slices"
	"testing"

	"repro/internal/hashutil"
	"repro/internal/xgft"
)

// modKTrees are the shapes the §VIII identity is held on: the paper's
// full and slimmed two-level trees, a tree with one root, three-level
// trees full and slimmed, trees whose leaves have several up-ports
// (w_1 > 1) or whose levels have more parents than children, a tree
// whose top level has one child, a one-level tree, and the 4 096-leaf
// three-level tree, on a sample of its pairs.
func modKTrees(t *testing.T) []*xgft.Topology {
	t.Helper()
	return []*xgft.Topology{
		paperTree(t, 16),
		paperTree(t, 10),
		paperTree(t, 1),
		xgft.MustNew(3, []int{4, 4, 4}, []int{1, 4, 4}),
		xgft.MustNew(3, []int{4, 4, 4}, []int{1, 2, 3}),
		xgft.MustNew(3, []int{4, 3, 5}, []int{1, 2, 3}),
		xgft.MustNew(3, []int{2, 3, 4}, []int{3, 2, 5}),
		xgft.MustNew(2, []int{3, 4}, []int{2, 5}),
		xgft.MustNew(2, []int{8, 8}, []int{1, 3}),
		xgft.MustNew(2, []int{4, 1}, []int{1, 3}),
		xgft.MustNew(1, []int{6}, []int{4}),
		xgft.MustNew(3, []int{16, 16, 16}, []int{1, 16, 16}),
	}
}

// modKClosedForm is mod-k as §V states it: at switch level l the
// up-port is digit l-1 of the guide leaf's label modulo w_{l+1}, up to
// the pair's NCA level; the leaf itself (level 0) uses digit 0.
func modKClosedForm(tp *xgft.Topology, guide, level int) []int {
	label := tp.Label(0, guide)
	up := make([]int, level)
	for l := range up {
		up[l] = label[max(l-1, 0)] % tp.W(l)
	}
	return up
}

// forPairs calls fn for every ordered pair of distinct leaves, or for a
// keyed sample of 1 << 16 of them on a tree of more than 256 leaves.
func forPairs(tp *xgft.Topology, fn func(s, d int)) {
	n := tp.Leaves()
	if n <= 256 {
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					fn(s, d)
				}
			}
		}
		return
	}
	for i := uint64(0); i < 1<<16; i++ {
		s, d := int(hashutil.Mix(1, i)%uint64(n)), int(hashutil.Mix(2, i)%uint64(n))
		if s != d {
			fn(s, d)
		}
	}
}

// TestModuloFamilyIsModK pins the paper's §VIII identity the package
// is built on: the relabeling family drawn with the modulo map is
// S-mod-k (guided by the source) and D-mod-k (by the destination), on
// every pair, through Route and through the buffered ascent alike.
func TestModuloFamilyIsModK(t *testing.T) {
	for _, tp := range modKTrees(t) {
		for _, tc := range []struct {
			algo     Algorithm
			bySource bool
		}{{NewSModK(tp), true}, {NewDModK(tp), false}} {
			asc := tc.algo.(ascender)
			var buf [xgft.MaxHeight]int
			forPairs(tp, func(s, d int) {
				guide := d
				if tc.bySource {
					guide = s
				}
				want := modKClosedForm(tp, guide, tp.NCALevel(s, d))
				if got := tc.algo.Route(s, d).Up; !slices.Equal(got, want) {
					t.Fatalf("%s on %s: route %d->%d ascends %v, closed form %v", tc.algo.Name(), tp, s, d, got, want)
				}
				if got := asc.ascentInto(s, d, buf[:0]); !slices.Equal(got, want) {
					t.Fatalf("%s on %s: buffered ascent %d->%d is %v, closed form %v", tc.algo.Name(), tp, s, d, got, want)
				}
			})
		}
	}
}

// structureTrees are a full, a slimmed and a three-level tree, small
// enough to walk every pair.
func structureTrees(t *testing.T) []*xgft.Topology {
	t.Helper()
	return []*xgft.Topology{
		paperTree(t, 16),
		paperTree(t, 10),
		xgft.MustNew(3, []int{4, 4, 4}, []int{1, 4, 2}),
	}
}

// guideOf returns the function of (guide leaf, NCA level) the scheme's
// ascents are, keyed by that pair, or the first pair whose ascent
// differs from an earlier one with the same key.
func guideOf(tp *xgft.Topology, algo Algorithm, bySource bool) (conflict [2]int, ok bool) {
	seen := make(map[[2]int][]int)
	ok = true
	forPairs(tp, func(s, d int) {
		if !ok {
			return
		}
		guide := d
		if bySource {
			guide = s
		}
		key := [2]int{guide, tp.NCALevel(s, d)}
		up := algo.Route(s, d).Up
		if prev, found := seen[key]; found && !slices.Equal(prev, up) {
			conflict, ok = [2]int{s, d}, false
			return
		}
		seen[key] = up
	})
	return conflict, ok
}

// TestGuidedAscentIsAFunctionOfGuideAndLevel holds ROADMAP's structural
// claim over every pair: each endpoint-guided scheme's ascent depends
// only on its guide leaf and the pair's NCA level. Random, which hashes
// the pair, is guided by neither endpoint.
func TestGuidedAscentIsAFunctionOfGuideAndLevel(t *testing.T) {
	for _, tp := range structureTrees(t) {
		for _, tc := range []struct {
			algo     Algorithm
			bySource bool
		}{
			{NewSModK(tp), true}, {NewDModK(tp), false},
			{NewRandomNCAUp(tp, 3), true}, {NewRandomNCADown(tp, 3), false},
			{NewUnbalancedNCAUp(tp, 3), true}, {NewUnbalancedNCADown(tp, 3), false},
		} {
			if pair, ok := guideOf(tp, tc.algo, tc.bySource); !ok {
				t.Errorf("%s on %s: ascent of %d->%d differs from another pair's with its guide and NCA level", tc.algo.Name(), tp, pair[0], pair[1])
			}
		}
		random := NewRandom(tp, 3)
		for _, bySource := range []bool{true, false} {
			if _, ok := guideOf(tp, random, bySource); ok {
				t.Errorf("random on %s: ascent is a function of the guide (source %v) and NCA level", tp, bySource)
			}
		}
	}
}

// destinationPortConflict walks every pair's ascent and reports the
// first switch that two sources' routes leave toward one destination by
// different up-ports. A scheme without one fits destination-indexed
// forwarding (InfiniBand's linear forwarding tables: one up-port per
// switch and destination), the deployment of the D-mod-k literature.
func destinationPortConflict(tp *xgft.Topology, algo Algorithm) (level, node, dst int, found bool) {
	n := tp.Leaves()
	port := make([][]int, tp.Height()) // by level: node*n + destination -> up-port + 1
	for l := range port {
		port[l] = make([]int, tp.NodesAt(l)*n)
	}
	forPairs(tp, func(s, d int) {
		if found {
			return
		}
		at := s
		for l, p := range algo.Route(s, d).Up {
			cell := &port[l][at*n+d]
			if *cell != 0 && *cell != p+1 {
				level, node, dst, found = l, at, d, true
				return
			}
			*cell = p + 1
			at = tp.Parent(l, at, p)
		}
	})
	return level, node, dst, found
}

// TestDModKIsDestinationBased: D-mod-k gives each (switch,
// destination) one up-port on full, slimmed and three-level trees.
func TestDModKIsDestinationBased(t *testing.T) {
	for _, tp := range structureTrees(t) {
		if l, node, d, found := destinationPortConflict(tp, NewDModK(tp)); found {
			t.Errorf("d-mod-k on %s: switch (%d,%d) forwards destination %d by two up-ports", tp, l, node, d)
		}
	}
}

// TestRNCADownIsDestinationBased: so do the destination-guided members
// of the relabeling family, balanced and unbalanced, for any seed.
func TestRNCADownIsDestinationBased(t *testing.T) {
	for _, tp := range structureTrees(t) {
		for _, algo := range []Algorithm{NewRandomNCADown(tp, 5), NewRandomNCADown(tp, 9), NewUnbalancedNCADown(tp, 5)} {
			if l, node, d, found := destinationPortConflict(tp, algo); found {
				t.Errorf("%s on %s: switch (%d,%d) forwards destination %d by two up-ports", algo.Name(), tp, l, node, d)
			}
		}
	}
}

// TestLFTOnDeepTree: on the 4-ary 3-tree, r-NCA-d fits linear
// forwarding tables (one up-port per switch and destination) and every
// one of its routes connects source to destination.
func TestLFTOnDeepTree(t *testing.T) {
	tp, err := xgft.NewKaryNTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	algo := NewRandomNCADown(tp, 9)
	if l, node, d, found := destinationPortConflict(tp, algo); found {
		t.Errorf("r-NCA-d on %s: switch (%d,%d) forwards destination %d by two up-ports", tp, l, node, d)
	}
	forPairs(tp, func(s, d int) {
		if r := algo.Route(s, d); !r.VerifyConnects(tp) {
			t.Fatalf("r-NCA-d route %d->%d does not connect", s, d)
		}
	})
}

// TestSModKIsNotDestinationBased: the source-guided schemes and
// per-pair Random route some destination by two up-ports at one switch,
// so no destination-indexed table holds them.
func TestSModKIsNotDestinationBased(t *testing.T) {
	for _, tp := range structureTrees(t) {
		for _, algo := range []Algorithm{NewSModK(tp), NewRandomNCAUp(tp, 1), NewRandom(tp, 1)} {
			if _, _, _, found := destinationPortConflict(tp, algo); !found {
				t.Errorf("%s on %s gives every (switch, destination) one up-port", algo.Name(), tp)
			}
		}
	}
}
