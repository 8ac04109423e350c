package xgft

import (
	"fmt"
	"math/bits"
)

// Degraded topology views. A View is a Topology plus a set of failed
// wires (child-parent link pairs) and failed switches; it answers
// "does this route survive the failures" without rebuilding the
// topology, which is what lets a subnet manager patch only the routes
// that traverse a failed element. Failing a switch fails every wire
// adjacent to it, so all fault queries reduce to wire-set membership.
//
// Views are plain mutable values: derive one per fault scenario with
// Clone and mutate the copy. All read methods are safe for concurrent
// use once mutation stops (the fabric layer freezes a View per
// generation).

// SwitchID names a switch as (level, index); level 0 names a leaf.
type SwitchID struct {
	Level, Index int
}

// View is a fault overlay over an immutable Topology.
type View struct {
	topo *Topology
	// failed is a bitset over flat wire IDs [0, TotalChannels()).
	failed   []uint64
	nFailed  int
	switches []SwitchID // failed switches, in failure order
}

// NewView returns a healthy view of the topology (no failures).
func NewView(t *Topology) *View {
	return &View{
		topo:   t,
		failed: make([]uint64, (t.TotalChannels()+63)/64),
	}
}

// Topology returns the underlying (healthy) topology.
func (v *View) Topology() *Topology { return v.topo }

// Clone returns an independent copy of the view.
func (v *View) Clone() *View {
	return &View{
		topo:     v.topo,
		failed:   append([]uint64(nil), v.failed...),
		nFailed:  v.nFailed,
		switches: append([]SwitchID(nil), v.switches...),
	}
}

// FailWire marks the wire with the given flat channel ID failed (both
// the up and the down channel riding it). It reports whether the wire
// was previously healthy.
func (v *View) FailWire(id int) bool {
	if id < 0 || id >= v.topo.TotalChannels() {
		return false
	}
	w, b := id/64, uint64(1)<<(id%64)
	if v.failed[w]&b != 0 {
		return false
	}
	v.failed[w] |= b
	v.nFailed++
	return true
}

// FailLink fails the wire leaving (level, index) through up-port p.
// It reports whether the link was previously healthy.
func (v *View) FailLink(level, index, p int) bool {
	if level < 0 || level >= v.topo.Height() ||
		index < 0 || index >= v.topo.NodesAt(level) ||
		p < 0 || p >= v.topo.W(level) {
		return false
	}
	return v.FailWire(v.topo.UpChannelID(level, index, p))
}

// FailSwitch fails a switch at level >= 1: every wire to its children
// and (below the roots) every wire to its parents. It reports whether
// any adjacent wire was previously healthy.
func (v *View) FailSwitch(level, index int) bool {
	t := v.topo
	if level < 1 || level > t.Height() || index < 0 || index >= t.NodesAt(level) {
		return false
	}
	any := false
	// Child-side wires: the up-port a child uses towards this switch
	// is the switch's own W-digit at position level-1, identical for
	// every child.
	p := t.UpPortOf(level-1, index)
	for c := 0; c < t.M(level-1); c++ {
		if v.FailWire(t.UpChannelID(level-1, t.Child(level, index, c), p)) {
			any = true
		}
	}
	if level < t.Height() {
		for p := 0; p < t.W(level); p++ {
			if v.FailWire(t.UpChannelID(level, index, p)) {
				any = true
			}
		}
	}
	if any {
		v.switches = append(v.switches, SwitchID{Level: level, Index: index})
	}
	return any
}

// WireFailed reports whether the wire with the given flat ID failed.
func (v *View) WireFailed(id int) bool {
	return v.failed[id/64]&(uint64(1)<<(id%64)) != 0
}

// FailedSince returns the flat IDs, ascending, of the wires failed in v
// that are healthy in base, a view of the same topology; a nil base is
// the healthy view. Routes that were valid under base can be invalid
// under v only by crossing one of them.
func (v *View) FailedSince(base *View) []int {
	var ids []int
	for i, word := range v.failed {
		if base != nil {
			word &^= base.failed[i]
		}
		for ; word != 0; word &= word - 1 {
			ids = append(ids, 64*i+bits.TrailingZeros64(word))
		}
	}
	return ids
}

// FailedWires returns the number of failed wires.
func (v *View) FailedWires() int { return v.nFailed }

// FailedSwitches returns the switches failed through FailSwitch, in
// failure order.
func (v *View) FailedSwitches() []SwitchID {
	return append([]SwitchID(nil), v.switches...)
}

// Healthy reports whether the view carries no failures.
func (v *View) Healthy() bool { return v.nFailed == 0 }

// RouteOK reports whether the route traverses only healthy wires.
// Both halves are checked: the ascent climbs from r.Src, the descent
// from r.Dst, through the same ports.
func (v *View) RouteOK(r Route) bool {
	if v.nFailed == 0 {
		return true
	}
	c := v.topo.Climb(r.Src, r.Dst)
	for l, p := range r.Up {
		if up, down := c.Step(l, p); v.WireFailed(up) || v.WireFailed(down) {
			return false
		}
	}
	return true
}

// String summarizes the fault state.
func (v *View) String() string {
	return fmt.Sprintf("view of %s: %d/%d wires failed, %d switches failed",
		v.topo, v.nFailed, v.topo.TotalChannels(), len(v.switches))
}
