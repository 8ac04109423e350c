package core

import (
	"repro/internal/hashutil"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

func TestColorBipartiteProper(t *testing.T) {
	// A 3-regular bipartite multigraph colors with 3 colors.
	edges := [][2]int{
		{0, 0}, {0, 1}, {0, 2},
		{1, 0}, {1, 1}, {1, 2},
		{2, 0}, {2, 1}, {2, 2},
	}
	cols, err := ColorBipartite(3, 3, 3, edges)
	if err != nil {
		t.Fatal(err)
	}
	assertProperColoring(t, 3, 3, edges, cols, 1)
}

func TestColorBipartiteParallelEdges(t *testing.T) {
	// Multigraph with parallel edges: two (0,0) edges need two colors.
	edges := [][2]int{{0, 0}, {0, 0}}
	cols, err := ColorBipartite(1, 1, 2, edges)
	if err != nil {
		t.Fatal(err)
	}
	if cols[0] == cols[1] {
		t.Errorf("parallel edges share color %d", cols[0])
	}
}

func TestColorBipartiteDegreeOverflow(t *testing.T) {
	edges := [][2]int{{0, 0}, {0, 1}, {0, 2}}
	if _, err := ColorBipartite(1, 3, 2, edges); err == nil {
		t.Error("degree 3 with 2 colors accepted")
	}
	if _, err := ColorBipartite(1, 1, 0, nil); err == nil {
		t.Error("zero colors accepted")
	}
	if _, err := ColorBipartite(1, 1, 1, [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
}

func TestColorBipartiteBalancedFolding(t *testing.T) {
	// Degree 4 folded into 2 colors: every vertex sees each color at
	// most ceil(4/2) = 2 times.
	var edges [][2]int
	for l := 0; l < 4; l++ {
		for r := 0; r < 4; r++ {
			edges = append(edges, [2]int{l, r})
		}
	}
	cols, err := ColorBipartiteBalanced(4, 4, 2, edges)
	if err != nil {
		t.Fatal(err)
	}
	assertProperColoring(t, 4, 4, edges, cols, 2)
}

func TestColorBipartiteBalancedEmpty(t *testing.T) {
	cols, err := ColorBipartiteBalanced(2, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 0 {
		t.Errorf("colors = %v", cols)
	}
	if _, err := ColorBipartiteBalanced(1, 1, 1, [][2]int{{0, 9}}); err == nil {
		t.Error("bad endpoint accepted")
	}
	if _, err := ColorBipartiteBalanced(1, 1, 0, nil); err == nil {
		t.Error("zero colors accepted")
	}
}

// assertProperColoring checks every vertex sees each color at most
// `load` times.
func assertProperColoring(t *testing.T, nL, nR int, edges [][2]int, cols []int, load int) {
	t.Helper()
	perL := make(map[[2]int]int)
	perR := make(map[[2]int]int)
	for i, e := range edges {
		c := cols[i]
		perL[[2]int{e[0], c}]++
		perR[[2]int{e[1], c}]++
		if perL[[2]int{e[0], c}] > load {
			t.Fatalf("left vertex %d color %d used %d times (load %d)", e[0], c, perL[[2]int{e[0], c}], load)
		}
		if perR[[2]int{e[1], c}] > load {
			t.Fatalf("right vertex %d color %d used %d times (load %d)", e[1], c, perR[[2]int{e[1], c}], load)
		}
	}
}

func TestQuickEdgeColoringRandomBipartite(t *testing.T) {
	f := func(seed int64) bool {
		rng := hashutil.NewStream(uint64(seed))
		n := 2 + rng.Intn(12)
		colors := 1 + rng.Intn(6)
		// Build a multigraph with max degree <= colors.
		degL := make([]int, n)
		degR := make([]int, n)
		var edges [][2]int
		for tries := 0; tries < n*colors*2; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if degL[u] < colors && degR[v] < colors {
				degL[u]++
				degR[v]++
				edges = append(edges, [2]int{u, v})
			}
		}
		cols, err := ColorBipartite(n, n, colors, edges)
		if err != nil {
			return false
		}
		seenL := make(map[[2]int]bool)
		seenR := make(map[[2]int]bool)
		for i, e := range edges {
			c := cols[i]
			if c < 0 || c >= colors {
				return false
			}
			if seenL[[2]int{e[0], c}] || seenR[[2]int{e[1], c}] {
				return false
			}
			seenL[[2]int{e[0], c}] = true
			seenR[[2]int{e[1], c}] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLevelWiseConflictFreeOnFullTree(t *testing.T) {
	// Constructive rearrangeability (§II): every permutation on the
	// full 16-ary 2-tree routes with zero network contention.
	tp := paperTree(t, 16)
	for trial := 0; trial < 5; trial++ {
		p := pattern.KeyedRandomPermutation(256, 1000, uint64(trial)+1)
		lw, err := NewLevelWise(tp, []*pattern.Pattern{p})
		if err != nil {
			t.Fatal(err)
		}
		if got := maxGroups(tp, lw, p); got != 1 {
			t.Fatalf("trial %d: level-wise contention %d, want 1", trial, got)
		}
	}
}

func TestLevelWiseConflictFreeOnDeepTree(t *testing.T) {
	// The inductive argument must hold through three levels.
	tp, err := xgft.NewKaryNTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		p := pattern.KeyedRandomPermutation(64, 1000, uint64(trial)+101)
		lw, err := NewLevelWise(tp, []*pattern.Pattern{p})
		if err != nil {
			t.Fatal(err)
		}
		if got := maxGroups(tp, lw, p); got != 1 {
			t.Fatalf("trial %d: deep level-wise contention %d, want 1", trial, got)
		}
		tbl, err := BuildTable(tp, lw, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tbl.Routes {
			if r.Src != r.Dst && !r.VerifyConnects(tp) {
				t.Fatal("level-wise route does not connect")
			}
		}
	}
}

func TestLevelWiseCGTranspose(t *testing.T) {
	// The pattern that defeats D-mod-k is routed conflict-free.
	tp := paperTree(t, 16)
	ph, err := pattern.CGTransposePhase(128, 1000)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := NewLevelWise(tp, []*pattern.Pattern{ph})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxGroups(tp, lw, ph); got != 1 {
		t.Errorf("level-wise CG transpose contention %d, want 1", got)
	}
}

func TestLevelWiseBalancedOnSlimmedTree(t *testing.T) {
	// On XGFT(2;16,16;1,w2) a permutation needs at most ceil(16/w2)
	// flows per channel; the balanced coloring must hit that bound.
	for _, w2 := range []int{8, 5, 3} {
		tp := paperTree(t, w2)
		p := pattern.KeyedRandomPermutation(256, 1000, uint64(w2)+201)
		lw, err := NewLevelWise(tp, []*pattern.Pattern{p})
		if err != nil {
			t.Fatal(err)
		}
		bound := (16 + w2 - 1) / w2
		if got := maxGroups(tp, lw, p); got > bound {
			t.Errorf("w2=%d: level-wise contention %d above optimal bound %d", w2, got, bound)
		}
	}
}

func TestLevelWiseFallback(t *testing.T) {
	tp := paperTree(t, 16)
	ph := pattern.New(256)
	ph.Add(0, 16, 10)
	lw, err := NewLevelWise(tp, []*pattern.Pattern{ph})
	if err != nil {
		t.Fatal(err)
	}
	if lw.Name() != "level-wise" {
		t.Errorf("name = %s", lw.Name())
	}
	r := lw.Route(100, 200)
	if err := r.Validate(tp); err != nil {
		t.Fatal(err)
	}
}

func TestLevelWiseAtLeastAsGoodAsColored(t *testing.T) {
	// Level-wise is constructive and provably conflict-free on full
	// trees; Colored's local search may stop at a local optimum, so
	// level-wise must never be worse.
	tp := paperTree(t, 16)
	for trial := 0; trial < 3; trial++ {
		p := pattern.KeyedRandomPermutation(256, 1000, uint64(trial)+301)
		lw, err := NewLevelWise(tp, []*pattern.Pattern{p})
		if err != nil {
			t.Fatal(err)
		}
		col := NewColored(tp, []*pattern.Pattern{p}, ColoredConfig{})
		if maxGroups(tp, lw, p) > maxGroups(tp, col, p) {
			t.Errorf("level-wise %d worse than colored %d on a permutation", maxGroups(tp, lw, p), maxGroups(tp, col, p))
		}
	}
}

func TestQuickLevelWiseRandomTopologiesAndPermutations(t *testing.T) {
	f := func(seed int64) bool {
		rng := hashutil.NewStream(uint64(seed))
		k := 2 + rng.Intn(3)
		n := 2 + rng.Intn(2)
		tp, err := xgft.NewKaryNTree(k, n)
		if err != nil {
			return false
		}
		p := pattern.KeyedRandomPermutation(tp.Leaves(), 100, uint64(seed)+1)
		lw, err := NewLevelWise(tp, []*pattern.Pattern{p})
		if err != nil {
			return false
		}
		return maxGroups(tp, lw, p) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
