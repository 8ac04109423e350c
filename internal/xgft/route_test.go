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

func TestRouteChannelsDisjointHalves(t *testing.T) {
	tp := MustNew(2, []int{16, 16}, []int{1, 16})
	r := Route{Src: 5, Dst: 37, Up: []int{0, 9}}
	up := r.UpChannels(tp, nil)
	down := r.DownChannels(tp, nil)
	if len(up) != 2 || len(down) != 2 {
		t.Fatalf("channel counts = %d,%d, want 2,2", len(up), len(down))
	}
	// The ascent leaves from src's subtree, the descent enters dst's:
	// with distinct first-level switches the wire sets are disjoint.
	for _, u := range up {
		for _, d := range down {
			if u == d {
				t.Fatalf("up and down halves share wire %d", u)
			}
		}
	}
}

func TestRouteWalkOrder(t *testing.T) {
	tp := MustNew(2, []int{16, 16}, []int{1, 16})
	r := Route{Src: 5, Dst: 37, Up: []int{0, 9}}
	var ups, downs int
	var order []bool
	r.Walk(tp, func(level, node, port, channel int, up bool) {
		order = append(order, up)
		if up {
			ups++
		} else {
			downs++
		}
	})
	if ups != 2 || downs != 2 {
		t.Fatalf("walk visited %d up, %d down, want 2,2", ups, downs)
	}
	// Ascent strictly precedes descent.
	seenDown := false
	for _, u := range order {
		if !u {
			seenDown = true
		} else if seenDown {
			t.Fatal("ascent hop after descent hop")
		}
	}
}

func TestRouteWalkMatchesChannelLists(t *testing.T) {
	tp := MustNew(3, []int{3, 4, 2}, []int{1, 2, 3})
	r := modKRoute(tp, 1, 23)
	wantUp := r.UpChannels(tp, nil)
	wantDown := r.DownChannels(tp, nil)
	var gotUp, gotDown []int
	r.Walk(tp, func(_, _, _, ch int, up bool) {
		if up {
			gotUp = append(gotUp, ch)
		} else {
			gotDown = append(gotDown, ch)
		}
	})
	if !equalInts(gotUp, wantUp) {
		t.Errorf("walk up channels %v, want %v", gotUp, wantUp)
	}
	if !equalInts(gotDown, wantDown) {
		t.Errorf("walk down channels %v, want %v", gotDown, wantDown)
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

func TestQuickWalkChannelCount(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		tp := randomTopology(r)
		n := tp.Leaves()
		s, d := r.Intn(n), r.Intn(n)
		rt := modKRoute(tp, s, d)
		count := 0
		rt.Walk(tp, func(_, _, _, ch int, _ bool) {
			if ch < 0 || ch >= tp.TotalChannels() {
				count = -1 << 30
			}
			count++
		})
		return count == rt.Hops()
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
