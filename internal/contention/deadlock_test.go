package contention

import (
	"repro/internal/hashutil"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

func TestAllAlgorithmsAreDeadlockFree(t *testing.T) {
	tp := paperTree(t, 10)
	p := pattern.UniformRandom(256, 3, 100, 4)
	algos := []core.Algorithm{
		core.NewSModK(tp),
		core.NewDModK(tp),
		core.NewRandom(tp, 1),
		core.NewRandomNCAUp(tp, 1),
		core.NewRandomNCADown(tp, 1),
	}
	for _, algo := range algos {
		tbl, err := core.BuildTable(tp, algo, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyDeadlockFree(tp, tbl.Routes); err != nil {
			t.Errorf("%s: %v", algo.Name(), err)
		}
	}
}

func TestDeadlockFreeOnDeepTrees(t *testing.T) {
	tp, err := xgft.NewKaryNTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.KeyedRandomPermutation(64, 100, 5)
	lw, err := core.NewLevelWise(tp, []*pattern.Pattern{p})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := core.BuildTable(tp, lw, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDeadlockFree(tp, tbl.Routes); err != nil {
		t.Error(err)
	}
}

func TestDeadlockAcceptsOppositeRoutes(t *testing.T) {
	// A false-positive guard: two routes riding the same wires in
	// opposite directions (0 -> 2 and 2 -> 0 through root 0) leave two
	// disjoint dependency chains, and the checker must pass them.
	tp := xgft.MustNew(2, []int{2, 2}, []int{1, 2})
	r1 := xgft.Route{Src: 0, Dst: 2, Up: []int{0, 0}}
	r2 := xgft.Route{Src: 2, Dst: 0, Up: []int{0, 0}}
	if err := VerifyDeadlockFree(tp, []xgft.Route{r1, r2}); err != nil {
		t.Errorf("acyclic opposite routes flagged: %v", err)
	}
}

func TestDeadlockDetectsCycle(t *testing.T) {
	// Up*/down* routes cannot close a cycle, so the cyclic input goes in
	// as raw directed-channel paths (2*wire+dir, dir 1 = up): three
	// "routes" that each hold one channel while requesting the next
	// around a ring of wires 4, 2 and 7.
	const up4, down2, up7 = 2*4 + 1, 2 * 2, 2*7 + 1
	g := newCDG(16)
	for _, path := range [][]int32{{up4, down2}, {down2, up7}, {up7, up4}} {
		if err := g.addPath(path); err != nil {
			t.Fatal(err)
		}
	}
	// The DFS roots at the lowest channel with out-edges (wire 2 down),
	// walks to wire 7 up, then wire 4 up, whose edge back closes it.
	const want = "contention: channel dependency cycle through wire 4 (up) and wire 2 (down)"
	if err := g.verify(); err == nil || err.Error() != want {
		t.Errorf("verify() = %v, want %q", err, want)
	}
	// A self-dependency is the shortest cycle.
	g = newCDG(16)
	if err := g.addPath([]int32{up7, up7}); err != nil {
		t.Fatal(err)
	}
	const wantSelf = "contention: channel dependency cycle through wire 7 (up) and wire 7 (up)"
	if err := g.verify(); err == nil || err.Error() != wantSelf {
		t.Errorf("verify() = %v, want %q", err, wantSelf)
	}
	if err := g.addPath([]int32{3, 16}); err == nil {
		t.Error("addPath accepted a channel outside the graph")
	}
}

func TestDeadlockRejectsMalformedRoutes(t *testing.T) {
	// A port digit past its radix yields a channel ID that aliases
	// another wire or leaves [0, TotalChannels): the route must fail
	// certification, not index out of bounds or pass.
	tp := paperTree(t, 10)
	for _, tc := range []struct {
		name  string
		route xgft.Route
		want  string
	}{
		{"top-level port past the slimmed radix", xgft.Route{Src: 0, Dst: 255, Up: []int{0, 10}},
			"contention: route 0->255 up-port 10 at level 1 out of range [0,10)"},
		{"port far outside every wire", xgft.Route{Src: 255, Dst: 0, Up: []int{0, 1 << 20}},
			"contention: route 255->0 up-port 1048576 at level 1 out of range [0,10)"},
		{"negative port", xgft.Route{Src: 0, Dst: 1, Up: []int{-1}},
			"contention: route 0->1 up-port -1 at level 0 out of range [0,1)"},
		{"source past the leaves", xgft.Route{Src: 256, Dst: 0, Up: []int{0, 0}},
			"contention: route 256->0 has an endpoint out of range [0,256)"},
		{"negative destination", xgft.Route{Src: 0, Dst: -1, Up: []int{0, 0}},
			"contention: route 0->-1 has an endpoint out of range [0,256)"},
		{"ascent taller than the tree", xgft.Route{Src: 0, Dst: 255, Up: []int{0, 0, 0}},
			"contention: route 0->255 climbs 3 levels on a tree of height 2"},
	} {
		good := xgft.Route{Src: 1, Dst: 200, Up: []int{0, 3}}
		err := VerifyDeadlockFree(tp, []xgft.Route{good, tc.route})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: VerifyDeadlockFree = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestDeadlockEmptyRoutes(t *testing.T) {
	tp := paperTree(t, 16)
	if err := VerifyDeadlockFree(tp, nil); err != nil {
		t.Error(err)
	}
	// Self-routes contribute nothing.
	if err := VerifyDeadlockFree(tp, []xgft.Route{{Src: 3, Dst: 3}}); err != nil {
		t.Error(err)
	}
}

func TestDeadlockFreeTheoremQuick(t *testing.T) {
	// Any set of minimal up*/down* routes is deadlock-free — check on
	// random topologies and random route choices.
	for seed := int64(0); seed < 30; seed++ {
		rng := hashutil.NewStream(uint64(seed))
		h := 1 + rng.Intn(3)
		m := make([]int, h)
		w := make([]int, h)
		for i := range m {
			m[i] = 1 + rng.Intn(3)
			w[i] = 1 + rng.Intn(3)
		}
		tp, err := xgft.New(h, m, w)
		if err != nil {
			t.Fatal(err)
		}
		n := tp.Leaves()
		var routes []xgft.Route
		for i := 0; i < 50; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			l := tp.NCALevel(s, d)
			up := make([]int, l)
			for j := range up {
				up[j] = rng.Intn(tp.W(j))
			}
			routes = append(routes, xgft.Route{Src: s, Dst: d, Up: up})
		}
		if err := VerifyDeadlockFree(tp, routes); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// graphOf renders a graph's edges per channel, in adjacency order — the
// form two graphs are compared in edge for edge.
func graphOf(g *cdg) [][]int32 {
	out := make([][]int32, len(g.head))
	for a := range g.head {
		for e := g.head[a]; e >= 0; e = g.next[e] {
			out[a] = append(out[a], g.to[e])
		}
	}
	return out
}

// TestCertifierRollback: a rejected addition cannot poison a growing
// certificate. An acyclic route set goes in and is marked; a raw path
// (the only way to express a cycle) closes one through edges the set
// already has, so Verify fails; Rollback leaves exactly the marked graph
// — same edges in the same adjacency order, same tails, an edge set
// that still dedups the old edges and no longer knows the dropped ones
// — and a following acyclic addition verifies.
func TestCertifierRollback(t *testing.T) {
	tp := paperTree(t, 10)
	c, err := NewCertifier(tp)
	if err != nil {
		t.Fatal(err)
	}
	add := func(algo core.Algorithm, pairs int, key uint64) {
		t.Helper()
		for i := 0; i < pairs; i++ {
			s := int(hashutil.Mix(key, 1, uint64(i)) % 256)
			d := int(hashutil.Mix(key, 2, uint64(i)) % 256)
			if err := c.Add(s, d, algo.Route(s, d).Up); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(core.NewDModK(tp), 3000, 7)
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	mark := c.Mark()
	want := graphOf(c.g)
	wantTail := append([]int32(nil), c.g.tail...)

	// 0 -> 16 under d-mod-k holds leaf 0's up channel, then switch 0's
	// up channel to root 0, then descends; the raw path closes the ring
	// from the last descent channel back to the first ascent channel.
	r := core.NewDModK(tp).Route(0, 16)
	if err := c.Add(0, 16, r.Up); err != nil {
		t.Fatal(err)
	}
	first := int32(2*tp.UpChannelID(0, 0, r.Up[0]) + 1)
	last := int32(2 * tp.UpChannelID(0, 16, r.Up[0]))
	add(core.NewRandomNCAUp(tp, 3), 500, 9) // more edges, on top of old adjacency lists
	if err := c.AddPath([]int32{last, first}); err != nil {
		t.Fatal(err)
	}
	if c.Mark() <= mark {
		t.Fatalf("the additions recorded no new dependency (%d edges before, %d after)", mark, c.Mark())
	}
	if err := c.Verify(); err == nil {
		t.Fatal("Verify passed a graph with a dependency ring")
	}

	c.Rollback(mark)
	if c.Mark() != mark {
		t.Fatalf("%d edges after rollback, want the marked %d", c.Mark(), mark)
	}
	got := graphOf(c.g)
	for a := range want {
		if !slices.Equal(got[a], want[a]) {
			t.Fatalf("channel %d: edges %v after rollback, %v when marked", a, got[a], want[a])
		}
	}
	for a, head := range c.g.head {
		if head >= 0 && c.g.tail[a] != wantTail[a] { // a tail means something only past a head
			t.Fatalf("channel %d: tail edge %d after rollback, %d when marked", a, c.g.tail[a], wantTail[a])
		}
	}
	if c.g.seen.n != mark {
		t.Errorf("edge set holds %d edges after rollback, want %d", c.g.seen.n, mark)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("rolled-back graph: %v", err)
	}
	// Old edges still dedup, dropped ones are new again, and the next
	// acyclic addition verifies.
	add(core.NewDModK(tp), 3000, 7)
	if c.Mark() != mark {
		t.Errorf("re-adding the marked routes grew the graph from %d to %d edges", mark, c.Mark())
	}
	add(core.NewRandomNCAUp(tp, 3), 500, 9)
	if c.Mark() <= mark {
		t.Error("re-adding the dropped routes recorded nothing")
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("acyclic addition after rollback: %v", err)
	}
}

// TestAddOnlyClimbsRanks: every dependency Add records leads to a
// higher rank, where an up wire at level l has rank l and a down wire
// at level l has rank 2h-1-l. Checked exhaustively on small trees —
// every pair, every valid ascent — into one certificate, it shows a
// certificate fed only through Add is acyclic and never fails Verify:
// the fabric's from-scratch fallback is reached only through a
// malformed route Add refuses or through AddPath.
func TestAddOnlyClimbsRanks(t *testing.T) {
	trees := []*xgft.Topology{
		xgft.MustNew(1, []int{4}, []int{3}),
		xgft.MustNew(2, []int{6, 5}, []int{1, 3}), // slimmed
		xgft.MustNew(3, []int{3, 5, 7}, []int{2, 3, 4}),
		xgft.MustNew(4, []int{2, 3, 2, 3}, []int{2, 1, 3, 2}),
	}
	for _, tp := range trees {
		c, err := NewCertifier(tp)
		if err != nil {
			t.Fatal(err)
		}
		n, h := tp.Leaves(), tp.Height()
		var up [xgft.MaxHeight]int
		var each func(s, d, l int)
		each = func(s, d, l int) {
			if l == tp.NCALevel(s, d) {
				if err := c.Add(s, d, up[:l]); err != nil {
					t.Fatal(err)
				}
				return
			}
			for p := 0; p < tp.W(l); p++ {
				up[l] = p
				each(s, d, l+1)
			}
		}
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				each(s, d, 0)
			}
		}
		if c.Mark() == 0 {
			t.Fatalf("%v: no dependency recorded", tp)
		}
		rank := func(ch int32) int {
			l, _, _ := tp.ChannelOf(int(ch >> 1))
			if ch&1 == 1 {
				return l
			}
			return 2*h - 1 - l
		}
		for from, e := range c.g.head {
			for ; e >= 0; e = c.g.next[e] {
				if to := c.g.to[e]; rank(int32(from)) >= rank(to) {
					t.Fatalf("%v: dependency %d -> %d goes from rank %d to %d", tp, from, to, rank(int32(from)), rank(to))
				}
			}
		}
		if err := c.Verify(); err != nil {
			t.Fatalf("%v: %v", tp, err)
		}
	}
}
