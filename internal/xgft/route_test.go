package xgft

import (
	"testing"
	"testing/quick"
)

// modKRoute builds the S-mod-k route for (s,d) directly from the
// definition, for use as a test fixture (the real algorithms live in
// internal/core).
func modKRoute(t *Topology, s, d int) Route {
	l := t.NCALevel(s, d)
	up := make([]int, l)
	lab := t.Label(0, s)
	for lvl := 0; lvl < l; lvl++ {
		j := lvl - 1
		if j < 0 {
			j = 0
		}
		up[lvl] = lab[j] % t.W(lvl)
	}
	return Route{Src: s, Dst: d, Up: up}
}

func TestRouteValidateAndConnect(t *testing.T) {
	tp := MustNew(3, []int{4, 4, 4}, []int{1, 2, 2})
	n := tp.Leaves()
	for s := 0; s < n; s += 3 {
		for d := 0; d < n; d += 5 {
			r := modKRoute(tp, s, d)
			if err := r.Validate(tp); err != nil {
				t.Fatalf("Validate(%d->%d): %v", s, d, err)
			}
			if !r.VerifyConnects(tp) {
				t.Fatalf("route %d->%d does not connect", s, d)
			}
		}
	}
}

func TestRouteValidateErrors(t *testing.T) {
	tp := MustNew(2, []int{4, 4}, []int{1, 4})
	cases := []struct {
		name string
		r    Route
	}{
		{"src out of range", Route{Src: -1, Dst: 3, Up: []int{0, 1}}},
		{"dst out of range", Route{Src: 0, Dst: 16, Up: []int{0, 1}}},
		{"wrong ascent length", Route{Src: 0, Dst: 5, Up: []int{0}}},
		{"port negative", Route{Src: 0, Dst: 5, Up: []int{0, -1}}},
		{"port too large", Route{Src: 0, Dst: 5, Up: []int{0, 4}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.r.Validate(tp); err == nil {
				t.Errorf("Validate accepted %+v", c.r)
			}
		})
	}
}

func TestRouteNCA(t *testing.T) {
	tp := MustNew(2, []int{16, 16}, []int{1, 16})
	// s=5 (switch 0), d=37 (switch 2): NCA at level 2 chosen by up
	// ports; root index = W2 digit (since w1=1 the W1 digit is 0).
	r := Route{Src: 5, Dst: 37, Up: []int{0, 9}}
	level, idx := r.NCA(tp)
	if level != 2 {
		t.Fatalf("NCA level = %d, want 2", level)
	}
	if idx != 9 {
		t.Fatalf("NCA index = %d, want 9", idx)
	}
	if got := r.Hops(); got != 4 {
		t.Errorf("Hops = %d, want 4", got)
	}
}

// climbWires walks the route the way production code does, as two
// climbs in one loop, and returns its wires in path order: the ascent
// from the source, then the descent read top-down.
func climbWires(t *Topology, r Route) (up, down []int) {
	l := len(r.Up)
	up, down = make([]int, l), make([]int, l)
	c := t.Climb(r.Src, r.Dst)
	for i, p := range r.Up {
		up[i], down[l-1-i] = c.Step(i, p)
	}
	return up, down
}

// referenceWires lowers the route without Parent, the parent table or
// the rule that the descent climbs from the destination: the NCA is
// the source's label with the ascent's W-digits swapped in, each half
// descends from it through Child towards its endpoint, and each wire
// is numbered by its child-side node and the port UpPortOf finds.
func referenceWires(t *Topology, r Route) (up, down []int) {
	top := len(r.Up)
	label := t.Label(0, r.Src)
	copy(label, r.Up)
	nca := t.Index(top, label)
	up, down = make([]int, top), make([]int, top)
	for i, end := range [2]int{r.Src, r.Dst} {
		digits := t.Label(0, end)
		node := nca
		for l := top; l > 0; l-- {
			child := t.Child(l, node, digits[l-1])
			wire := t.UpChannelID(l-1, child, t.UpPortOf(l-1, node))
			if i == 0 {
				up[l-1] = wire
			} else {
				down[top-l] = wire
			}
			node = child
		}
	}
	return up, down
}

// forEachAscent calls fn with every valid ascent of a pair whose NCA
// is at level len(up), reusing up.
func forEachAscent(t *Topology, up []int, fn func()) {
	var rec func(l int)
	rec = func(l int) {
		if l == len(up) {
			fn()
			return
		}
		for p := 0; p < t.W(l); p++ {
			up[l] = p
			rec(l + 1)
		}
	}
	rec(0)
}

// TestClimbMatchesReferenceLowering: on trees of height 1 to 4, with
// non-power-of-two arities, w1 > 1 and the paper's slimmed tree, every
// pair's every valid ascent walks the wires the reference lowering
// names, in path order.
func TestClimbMatchesReferenceLowering(t *testing.T) {
	trees := []*Topology{
		MustNew(1, []int{5}, []int{1}),
		MustNew(1, []int{4}, []int{3}),
		MustNew(2, []int{16, 16}, []int{1, 10}), // the paper's slimmed tree
		MustNew(3, []int{3, 5, 7}, []int{2, 3, 4}),
		MustNew(3, []int{4, 4, 4}, []int{1, 4, 4}),
		MustNew(4, []int{2, 3, 2, 3}, []int{2, 1, 3, 2}),
	}
	for _, tp := range trees {
		n := tp.Leaves()
		var buf [MaxHeight]int
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				r := Route{Src: s, Dst: d, Up: buf[:tp.NCALevel(s, d)]}
				forEachAscent(tp, r.Up, func() {
					gotUp, gotDown := climbWires(tp, r)
					wantUp, wantDown := referenceWires(tp, r)
					if !equalInts(gotUp, wantUp) || !equalInts(gotDown, wantDown) {
						t.Fatalf("%v: route %d->%d up %v: climbs walk %v then %v, reference %v then %v",
							tp, s, d, r.Up, gotUp, gotDown, wantUp, wantDown)
					}
				})
			}
		}
	}
}

// TestRouteWalkOrder: each Step crosses level l's wire out of the node
// each climb has reached, through the route's port, and moves both
// climbs to that wire's parent; the climbs meet at the route's NCA, so
// the source's wires read bottom-up then the destination's read
// top-down are one path.
func TestRouteWalkOrder(t *testing.T) {
	tp := MustNew(2, []int{16, 16}, []int{1, 16})
	r := Route{Src: 5, Dst: 37, Up: []int{0, 9}}
	c := tp.Climb(r.Src, r.Dst)
	for l, p := range r.Up {
		src, dst := c.Nodes()
		up, down := c.Step(l, p)
		for _, hop := range []struct {
			name       string
			wire, from int
		}{{"up", up, src}, {"down", down, dst}} {
			wl, wi, wp := tp.ChannelOf(hop.wire)
			if wl != l || wi != hop.from || wp != p {
				t.Fatalf("step %d %s wire %d is (%d,%d,%d), want (%d,%d,%d)",
					l, hop.name, hop.wire, wl, wi, wp, l, hop.from, p)
			}
		}
		a, b := c.Nodes()
		if a != tp.Parent(l, src, p) || b != tp.Parent(l, dst, p) {
			t.Fatalf("after step %d the climbs are at %d,%d, want %d,%d",
				l, a, b, tp.Parent(l, src, p), tp.Parent(l, dst, p))
		}
	}
	level, idx := r.NCA(tp)
	if a, b := c.Nodes(); level != len(r.Up) || a != idx || b != idx {
		t.Fatalf("climbs end at %d,%d, want NCA %d at level %d", a, b, idx, level)
	}
}

// TestRouteWalkMatchesChannelLists: the climbs' wires match channel
// lists built level by level with the parent arithmetic (not the
// parent table Climb reads), the ascent bottom-up and the descent
// top-down.
func TestRouteWalkMatchesChannelLists(t *testing.T) {
	tp := MustNew(3, []int{3, 4, 2}, []int{1, 2, 3})
	r := modKRoute(tp, 1, 23)
	l := len(r.Up)
	wantUp, wantDown := make([]int, l), make([]int, l)
	src, dst := r.Src, r.Dst
	for i, p := range r.Up {
		wantUp[i] = tp.UpChannelID(i, src, p)
		wantDown[l-1-i] = tp.UpChannelID(i, dst, p)
		src, dst = tp.parentIndex(i, src, p), tp.parentIndex(i, dst, p)
	}
	gotUp, gotDown := climbWires(tp, r)
	if !equalInts(gotUp, wantUp) {
		t.Errorf("walk up channels %v, want %v", gotUp, wantUp)
	}
	if !equalInts(gotDown, wantDown) {
		t.Errorf("walk down channels %v, want %v", gotDown, wantDown)
	}
}

// TestRouteChannelsDisjointHalves: the ascent leaves from the source's
// subtree and the descent enters the destination's, so with distinct
// first-level switches the two halves share no wire.
func TestRouteChannelsDisjointHalves(t *testing.T) {
	tp := MustNew(2, []int{16, 16}, []int{1, 16})
	up, down := climbWires(tp, Route{Src: 5, Dst: 37, Up: []int{0, 9}})
	if len(up) != 2 || len(down) != 2 {
		t.Fatalf("channel counts = %d,%d, want 2,2", len(up), len(down))
	}
	for _, u := range up {
		for _, d := range down {
			if u == d {
				t.Fatalf("up and down halves share wire %d", u)
			}
		}
	}
}

func TestQuickRandomRoutesConnect(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		tp := randomTopology(r)
		n := tp.Leaves()
		s, d := r.Intn(n), r.Intn(n)
		l := tp.NCALevel(s, d)
		up := make([]int, l)
		for i := range up {
			up[i] = r.Intn(tp.W(i))
		}
		rt := Route{Src: s, Dst: d, Up: up}
		return rt.Validate(tp) == nil && rt.VerifyConnects(tp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickWalkChannelCount: the two climbs of a random route cross
// one in-range wire a level each and meet at the route's NCA.
func TestQuickWalkChannelCount(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		tp := randomTopology(r)
		n := tp.Leaves()
		rt := modKRoute(tp, r.Intn(n), r.Intn(n))
		c := tp.Climb(rt.Src, rt.Dst)
		for l, p := range rt.Up {
			up, down := c.Step(l, p)
			for _, wire := range [2]int{up, down} {
				if wire < 0 || wire >= tp.TotalChannels() {
					return false
				}
			}
		}
		label := tp.Label(0, rt.Src)
		copy(label, rt.Up)
		nca := tp.Index(len(rt.Up), label)
		a, b := c.Nodes()
		return a == nca && b == nca
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
