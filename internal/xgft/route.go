package xgft

import "fmt"

// Route is a minimal deadlock-free path between two leaves: the
// ascending half is the sequence of up-ports to the chosen NCA
// (Up[l] is the port taken at level l, equivalently the W_{l+1} digit
// of the NCA); the descending half is uniquely determined by the
// destination label (paper §V).
type Route struct {
	Src, Dst int
	Up       []int
}

// NCA returns the (level, index) of the route's nearest common
// ancestor switch.
func (r Route) NCA(t *Topology) (level, index int) {
	return len(r.Up), t.NCAIndex(r.Src, r.Up)
}

// Hops returns the total number of channel traversals (up + down).
func (r Route) Hops() int { return 2 * len(r.Up) }

// UpChannels appends the flat channel IDs of the ascending half to dst
// and returns it.
func (r Route) UpChannels(t *Topology, dst []int) []int {
	idx := r.Src
	for l, p := range r.Up {
		dst = append(dst, t.UpChannelID(l, idx, p))
		idx = t.Parent(l, idx, p)
	}
	return dst
}

// DownChannels appends the flat channel IDs of the descending half to
// dst (ordered from the NCA towards the destination) and returns it.
// Down channels share IDs with their paired up channels; the caller
// distinguishes direction.
func (r Route) DownChannels(t *Topology, dst []int) []int {
	l := len(r.Up)
	// Walk up from Dst: the descending path visits exactly the
	// ancestors of Dst below the NCA, and the channel between level i
	// and i+1 is identified by the child-side node at level i.
	idx := r.Dst
	var ids [MaxHeight]int
	for i := 0; i < l; i++ {
		p := r.upPortTowardsNCA(t, i)
		ids[i] = t.UpChannelID(i, idx, p)
		idx = t.Parent(i, idx, p)
	}
	for i := l - 1; i >= 0; i-- {
		dst = append(dst, ids[i])
	}
	return dst
}

// upPortTowardsNCA returns the W-digit the NCA has at position i,
// which is Up[i] by construction.
func (r Route) upPortTowardsNCA(_ *Topology, i int) int { return r.Up[i] }

// Validate checks that the route is well formed for the topology:
// endpoints in range, correct ascent length (at least the NCA level of
// the pair; the paper only uses minimal routes, so exactly), and every
// port within its radix.
func (r Route) Validate(t *Topology) error {
	if r.Src < 0 || r.Src >= t.Leaves() {
		return fmt.Errorf("xgft: route source %d out of range [0,%d)", r.Src, t.Leaves())
	}
	if r.Dst < 0 || r.Dst >= t.Leaves() {
		return fmt.Errorf("xgft: route destination %d out of range [0,%d)", r.Dst, t.Leaves())
	}
	want := t.NCALevel(r.Src, r.Dst)
	if len(r.Up) != want {
		return fmt.Errorf("xgft: route %d->%d has ascent length %d, want NCA level %d", r.Src, r.Dst, len(r.Up), want)
	}
	for l, p := range r.Up {
		if p < 0 || p >= t.W(l) {
			return fmt.Errorf("xgft: route %d->%d up-port %d at level %d out of range [0,%d)", r.Src, r.Dst, p, l, t.W(l))
		}
	}
	return nil
}

// Walk calls fn for every directed channel traversal of the route in
// path order: first the ascent (up=true), then the descent (up=false).
// The channel argument is the flat wire ID; node is the child-side
// node index of that wire.
func (r Route) Walk(t *Topology, fn func(level, node, port, channel int, up bool)) {
	idx := r.Src
	for l, p := range r.Up {
		fn(l, idx, p, t.UpChannelID(l, idx, p), true)
		idx = t.Parent(l, idx, p)
	}
	l := len(r.Up)
	var nodes [MaxHeight]int
	var ports [MaxHeight]int
	dn := r.Dst
	for i := 0; i < l; i++ {
		nodes[i] = dn
		ports[i] = r.Up[i]
		dn = t.Parent(i, dn, r.Up[i])
	}
	for i := l - 1; i >= 0; i-- {
		fn(i, nodes[i], ports[i], t.UpChannelID(i, nodes[i], ports[i]), false)
	}
}

// VerifyConnects replays the route hop by hop through the adjacency
// relations and reports whether it really leads from Src to Dst. This
// is the strong correctness check used by tests: Validate checks
// shape, VerifyConnects checks semantics.
func (r Route) VerifyConnects(t *Topology) bool {
	idx := r.Src
	for l, p := range r.Up {
		if p < 0 || p >= t.W(l) {
			return false
		}
		idx = t.Parent(l, idx, p)
	}
	level := len(r.Up)
	d := t.Label(0, r.Dst)
	for l := level; l > 0; l-- {
		idx = t.Child(l, idx, d[l-1])
	}
	return idx == r.Dst
}
