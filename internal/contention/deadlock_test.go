package contention

import (
	"repro/internal/hashutil"
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

// rankTrees are the small trees the rank-order tests walk exhaustively:
// every pair, every valid ascent.
func rankTrees() []*xgft.Topology {
	return []*xgft.Topology{
		xgft.MustNew(1, []int{4}, []int{3}),
		xgft.MustNew(2, []int{6, 5}, []int{1, 3}), // slimmed
		xgft.MustNew(3, []int{3, 5, 7}, []int{2, 3, 4}),
		xgft.MustNew(4, []int{2, 3, 2, 3}, []int{2, 1, 3, 2}),
	}
}

// eachMinimalRoute calls fn with every minimal route on tp: every
// (src, dst) pair, self pairs included, under every ascent to its NCA
// level. up is reused between calls.
func eachMinimalRoute(tp *xgft.Topology, fn func(s, d int, up []int)) {
	var up [xgft.MaxHeight]int
	var each func(s, d, l int)
	each = func(s, d, l int) {
		if l == tp.NCALevel(s, d) {
			fn(s, d, up[:l])
			return
		}
		for p := 0; p < tp.W(l); p++ {
			up[l] = p
			each(s, d, l+1)
		}
	}
	for s := 0; s < tp.Leaves(); s++ {
		for d := 0; d < tp.Leaves(); d++ {
			each(s, d, 0)
		}
	}
}

// TestAddOnlyClimbsRanks: every dependency Add records leads to a
// higher rank, where an up wire at level l has rank l and a down wire
// at level l has rank 2h-1-l. Checked exhaustively on small trees —
// every pair, every valid ascent — into one certificate, it shows a
// certificate fed only through Add is acyclic and never fails Verify,
// which is why a gate that checks the rank order route by route
// (CheckRoute) needs no certificate.
func TestAddOnlyClimbsRanks(t *testing.T) {
	for _, tp := range rankTrees() {
		c, err := NewCertifier(tp)
		if err != nil {
			t.Fatal(err)
		}
		eachMinimalRoute(tp, func(s, d int, up []int) {
			if err := c.Add(s, d, up); err != nil {
				t.Fatal(err)
			}
		})
		if len(c.g.to) == 0 {
			t.Fatalf("%v: no dependency recorded", tp)
		}
		for from, e := range c.g.head {
			for ; e >= 0; e = c.g.next[e] {
				if to := c.g.to[e]; rank(tp, int32(from)) >= rank(tp, to) {
					t.Fatalf("%v: dependency %d -> %d goes from rank %d to %d", tp, from, to, rank(tp, int32(from)), rank(tp, to))
				}
			}
		}
		if err := c.Verify(); err != nil {
			t.Fatalf("%v: %v", tp, err)
		}
	}
}

// TestCheckRouteEveryMinimalRoute: on the rank trees the gate accepts
// every valid minimal route, and refuses every malformed form — an
// endpoint off the tree, an ascent taller than the tree, a port outside
// its radix at any level — with the text Certifier.Add refuses it with.
func TestCheckRouteEveryMinimalRoute(t *testing.T) {
	for _, tp := range rankTrees() {
		routes := 0
		eachMinimalRoute(tp, func(s, d int, up []int) {
			if err := CheckRoute(tp, s, d, up); err != nil {
				t.Fatalf("%v: valid route %d->%d %v: %v", tp, s, d, up, err)
			}
			routes++
		})
		if routes < tp.Leaves()*tp.Leaves() {
			t.Fatalf("%v: %d routes walked", tp, routes)
		}
		n, h := tp.Leaves(), tp.Height()
		full := make([]int, h) // a valid full-height ascent: port 0 at every level
		malformed := []xgft.Route{
			{Src: -1, Dst: 0, Up: full}, {Src: n, Dst: 0, Up: full},
			{Src: 0, Dst: -1, Up: full}, {Src: 0, Dst: n, Up: full},
			{Src: 0, Dst: n - 1, Up: make([]int, h+1)},
		}
		for l := 0; l < h; l++ {
			for _, p := range []int{-1, tp.W(l), 255} {
				up := make([]int, h)
				up[l] = p
				malformed = append(malformed, xgft.Route{Src: 0, Dst: n - 1, Up: up})
			}
		}
		for _, r := range malformed {
			c, err := NewCertifier(tp)
			if err != nil {
				t.Fatal(err)
			}
			want := c.Add(r.Src, r.Dst, r.Up)
			if got := CheckRoute(tp, r.Src, r.Dst, r.Up); want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("%v: route %d->%d %v: CheckRoute %v, Add %v; want the same refusal", tp, r.Src, r.Dst, r.Up, got, want)
			}
		}
	}
}

// climbs is the rank rule CheckRoute applies to a route's dependencies,
// applied to an arbitrary path in path form: it returns the first hop
// i whose dependency path[i-1] -> path[i] does not lead to a higher
// rank, or 0 when every one does.
func climbs(tp *xgft.Topology, path []int32) int {
	for i := 1; i < len(path); i++ {
		if rank(tp, path[i-1]) >= rank(tp, path[i]) {
			return i
		}
	}
	return 0
}

// TestRankRuleRefusesADescentThenAnAscent: a path that turns back up
// after descending, or repeats a channel, does not climb the rank order,
// and a refusal names the dependency and both ranks.
func TestRankRuleRefusesADescentThenAnAscent(t *testing.T) {
	tp := xgft.MustNew(2, []int{4, 4}, []int{1, 2})
	up0, up1 := int32(2*tp.UpChannelID(0, 0, 0)+1), int32(2*tp.UpChannelID(1, 0, 1)+1)
	down1, down0 := int32(2*tp.UpChannelID(1, 1, 1)), int32(2*tp.UpChannelID(0, 5, 0))
	for _, c := range []struct {
		path []int32
		want int
	}{
		{[]int32{up0, up1, down1, down0}, 0},
		{[]int32{up0, down0}, 0},
		{[]int32{up0, down0, up1}, 2},
		{[]int32{down1, up1}, 1},
		{[]int32{up1, up0}, 1},
		{[]int32{up0, up0}, 1},
		{[]int32{down0, down1}, 1},
	} {
		if got := climbs(tp, c.path); got != c.want {
			t.Errorf("climbs(%v) = %d, want %d", c.path, got, c.want)
		}
	}
	const want = "contention: route 0->5 holds wire 5 (down, rank 3) while requesting wire 17 (up, rank 1), against the up*/down* rank order"
	if err := rankError(tp, 0, 5, down0, up1); err == nil || err.Error() != want {
		t.Errorf("rankError = %v, want %q", err, want)
	}
}

// FuzzRankGateSound: the rank rule is sound. The input decodes to a
// small tree and a list of arbitrary directed-channel sequences (2*wire+1
// for a wire's up channel, 2*wire for its down); every sequence the rule
// accepts goes into one certificate, which must then verify acyclic.
func FuzzRankGateSound(f *testing.F) {
	f.Add(uint8(1), uint16(0x044), uint16(0x021), []byte{4, 0, 1, 0, 9, 0, 12, 0, 2, 2, 0, 7, 0, 3})
	f.Add(uint8(2), uint16(0x234), uint16(0x321), []byte{3, 0, 1, 0, 40, 0, 2, 3, 0, 2, 0, 41, 0, 3})
	f.Fuzz(func(t *testing.T, h uint8, ms, ws uint16, paths []byte) {
		height := 1 + int(h%3)
		m, w := make([]int, height), make([]int, height)
		for j := range m {
			m[j] = 1 + int(ms>>(4*j)&0xf)%6
			w[j] = 1 + int(ws>>(4*j)&0xf)%6
		}
		tp, err := xgft.New(height, m, w)
		if err != nil {
			t.Fatal(err)
		}
		channels := 2 * tp.TotalChannels()
		c, err := NewCertifier(tp)
		if err != nil {
			t.Fatal(err)
		}
		// Each sequence is a length byte, then that many big-endian
		// uint16 channels, reduced into range.
		for len(paths) > 0 {
			n := 1 + int(paths[0])%(2*xgft.MaxHeight)
			paths = paths[1:]
			var path []int32
			for ; n > 0 && len(paths) >= 2; n, paths = n-1, paths[2:] {
				path = append(path, int32((int(paths[0])<<8|int(paths[1]))%channels))
			}
			if climbs(tp, path) != 0 {
				continue
			}
			if err := c.g.addPath(path); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Verify(); err != nil {
			t.Fatalf("%v: rank-climbing paths close a cycle: %v", tp, err)
		}
	})
}
