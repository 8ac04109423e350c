package xgft

import (
	"slices"
	"testing"
)

func TestViewHealthy(t *testing.T) {
	tp := MustNew(2, []int{4, 4}, []int{1, 4})
	v := NewView(tp)
	if !v.Healthy() || v.FailedWires() != 0 {
		t.Fatalf("fresh view not healthy: %s", v)
	}
	r := Route{Src: 0, Dst: 5, Up: []int{0, 2}}
	if !v.RouteOK(r) {
		t.Fatalf("healthy view rejected route %v", r)
	}
}

func TestViewFailLink(t *testing.T) {
	tp := MustNew(2, []int{4, 4}, []int{1, 4})
	v := NewView(tp)
	if !v.FailLink(1, 0, 2) {
		t.Fatalf("FailLink reported already-failed on healthy view")
	}
	if v.FailLink(1, 0, 2) {
		t.Fatalf("FailLink reported newly-failed twice")
	}
	if v.FailedWires() != 1 {
		t.Fatalf("FailedWires = %d, want 1", v.FailedWires())
	}
	if !v.WireFailed(tp.UpChannelID(1, 0, 2)) {
		t.Fatalf("failed wire not reported failed")
	}

	// A route ascending through the failed link must be rejected; the
	// same pair through another root must pass. Src 0 and dst 5 sit
	// under different leaf switches (labels <0,0> and <1,1>), so the
	// ascent reaches level 2 through switch (1, 0).
	bad := Route{Src: 0, Dst: 5, Up: []int{0, 2}}
	if v.RouteOK(bad) {
		t.Fatalf("route through failed up-wire accepted")
	}
	good := Route{Src: 0, Dst: 5, Up: []int{0, 3}}
	if !v.RouteOK(good) {
		t.Fatalf("route avoiding failed wire rejected")
	}
	// The paired down channel fails with the wire: a route descending
	// through (1,0) port 2 — i.e. dst under switch 0 with NCA digit 2 —
	// is rejected too.
	badDown := Route{Src: 5, Dst: 0, Up: []int{0, 2}}
	if v.RouteOK(badDown) {
		t.Fatalf("route through failed down-wire accepted")
	}
}

func TestViewOutOfRange(t *testing.T) {
	tp := MustNew(2, []int{4, 4}, []int{1, 4})
	v := NewView(tp)
	if v.FailLink(-1, 0, 0) || v.FailLink(2, 0, 0) || v.FailLink(1, 99, 0) || v.FailLink(1, 0, 9) {
		t.Fatalf("out-of-range FailLink reported success")
	}
	if v.FailWire(-1) || v.FailWire(tp.TotalChannels()) {
		t.Fatalf("out-of-range FailWire reported success")
	}
	if v.FailSwitch(0, 0) || v.FailSwitch(3, 0) {
		t.Fatalf("out-of-range FailSwitch reported success")
	}
	if !v.Healthy() {
		t.Fatalf("rejected failures mutated the view: %s", v)
	}
}

func TestViewFailSwitch(t *testing.T) {
	tp := MustNew(2, []int{4, 4}, []int{1, 4})
	v := NewView(tp)
	// Root 2: its four child wires are the port-2 up-links of the four
	// level-1 switches. Roots have no parents, so exactly 4 wires fail.
	if !v.FailSwitch(2, 2) {
		t.Fatalf("FailSwitch reported nothing newly failed")
	}
	if v.FailedWires() != tp.M(1) {
		t.Fatalf("root failure killed %d wires, want %d", v.FailedWires(), tp.M(1))
	}
	for s := 0; s < tp.NodesAt(1); s++ {
		if !v.WireFailed(tp.UpChannelID(1, s, 2)) {
			t.Fatalf("wire (1,%d,2) to failed root still healthy", s)
		}
	}
	if got := v.FailedSwitches(); len(got) != 1 || got[0] != (SwitchID{Level: 2, Index: 2}) {
		t.Fatalf("FailedSwitches = %v", got)
	}
	if v.FailSwitch(2, 2) {
		t.Fatalf("re-failing a dead switch reported new failures")
	}

	// A mid-level switch also loses its parent-side wires.
	v2 := NewView(MustNew(3, []int{2, 2, 2}, []int{1, 2, 2}))
	if !v2.FailSwitch(1, 0) {
		t.Fatalf("FailSwitch(1,0) reported nothing newly failed")
	}
	// 2 children below (w1=1 wire each) + 2 parents above.
	if v2.FailedWires() != 4 {
		t.Fatalf("mid-level switch failure killed %d wires, want 4", v2.FailedWires())
	}
}

func TestViewCloneIndependence(t *testing.T) {
	tp := MustNew(2, []int{4, 4}, []int{1, 4})
	v := NewView(tp)
	v.FailLink(1, 0, 0)
	c := v.Clone()
	c.FailLink(1, 0, 1)
	c.FailSwitch(2, 3)
	if v.FailedWires() != 1 {
		t.Fatalf("mutating the clone changed the original: %s", v)
	}
	if !c.WireFailed(tp.UpChannelID(1, 0, 0)) {
		t.Fatalf("clone lost the original's failure")
	}
}

// TestFailedSinceAndLeavesUnder holds the two facts a route store's
// fault scan is narrowed by. FailedSince lists exactly the wires one
// view fails beyond another. LeavesUnder is the ancestor relation read
// downwards: a leaf is in the range of (level, index) exactly when some
// ascent from it reaches that node — so a route valid before a fault
// can be broken by it only if its source or its destination is under
// the child-side node of a newly failed wire.
func TestFailedSinceAndLeavesUnder(t *testing.T) {
	r := newRand(0x1eaf)
	for trial := 0; trial < 60; trial++ {
		tp := randomTopology(r)
		// reach[l][idx] = leaves with an ascent to (l, idx), by brute force.
		reach := make([]map[int]map[int]bool, tp.Height()+1)
		for l := range reach {
			reach[l] = make(map[int]map[int]bool)
		}
		for x := 0; x < tp.Leaves(); x++ {
			frontier := map[int]bool{x: true}
			for l := 0; ; l++ {
				for idx := range frontier {
					if reach[l][idx] == nil {
						reach[l][idx] = make(map[int]bool)
					}
					reach[l][idx][x] = true
				}
				if l == tp.Height() {
					break
				}
				next := make(map[int]bool)
				for idx := range frontier {
					for p := 0; p < tp.W(l); p++ {
						next[tp.Parent(l, idx, p)] = true
					}
				}
				frontier = next
			}
		}
		for l := 0; l <= tp.Height(); l++ {
			for idx := 0; idx < tp.NodesAt(l); idx++ {
				lo, hi := tp.LeavesUnder(l, idx)
				if hi-lo != len(reach[l][idx]) {
					t.Fatalf("%v: LeavesUnder(%d,%d) = [%d,%d), %d leaves reach the node", tp, l, idx, lo, hi, len(reach[l][idx]))
				}
				for x := lo; x < hi; x++ {
					if !reach[l][idx][x] {
						t.Fatalf("%v: LeavesUnder(%d,%d) = [%d,%d) holds leaf %d, which has no ascent to the node", tp, l, idx, lo, hi, x)
					}
				}
			}
		}

		base := NewView(tp)
		var first, second []int
		for i := 0; i < 1+r.Intn(4); i++ {
			if id := r.Intn(tp.TotalChannels()); base.FailWire(id) {
				first = append(first, id)
			}
		}
		v := base.Clone()
		for i := 0; i < 1+r.Intn(4); i++ {
			if id := r.Intn(tp.TotalChannels()); v.FailWire(id) {
				second = append(second, id)
			}
		}
		slices.Sort(first)
		slices.Sort(second)
		if got := v.FailedSince(base); !slices.Equal(got, second) {
			t.Fatalf("%v: FailedSince(base) = %v, failed after the clone: %v", tp, got, second)
		}
		if got, all := v.FailedSince(nil), append(append([]int(nil), first...), second...); len(got) != len(all) || len(got) != v.FailedWires() {
			t.Fatalf("%v: FailedSince(nil) = %v, want all %d failed wires", tp, got, v.FailedWires())
		}
		if got := base.FailedSince(v); len(got) != 0 {
			t.Fatalf("%v: a view fails %v beyond its own superset", tp, got)
		}
	}
}
