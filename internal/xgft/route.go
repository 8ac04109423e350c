package xgft

import "fmt"

// Route is a minimal deadlock-free path between two leaves, fixed by
// its up-ports alone (paper §V): Up[l] is the port taken at level l,
// equivalently the W_{l+1} digit of the NCA. The ascent climbs from
// Src through those ports; the descent is the climb from Dst through
// the same ports, read top-down. Every walk of a route's wires is a
// Climb, which advances both climbs a level at a time:
//
//	c := t.Climb(r.Src, r.Dst)
//	for l, p := range r.Up {
//		up, down := c.Step(l, p) // down is hop 2*len(r.Up)-1-l
//	}
//
// A wire carries one up and one down channel and is numbered by its
// child-side node (UpChannelID); the caller knows which direction it
// crossed.
type Route struct {
	Src, Dst int
	Up       []int
}

// Climb is a route walk in progress: the nodes the climbs from the
// route's two endpoints have reached. Walkers advance it with Step; it
// is a value, so a walk allocates nothing. A walk of one end passes
// the same leaf twice.
type Climb struct {
	t        *Topology
	src, dst int
}

// Climb starts the climbs of a route from src to dst.
//
//repro:hotpath
func (t *Topology) Climb(src, dst int) Climb { return Climb{t: t, src: src, dst: dst} }

// Step takes up-port p on both climbs, whose nodes are at level l, and
// returns the flat IDs of the wires crossed: up from the source's
// climb, down from the destination's. p must be in [0, W(l)): callers
// that take ports from outside check them first.
//
//repro:hotpath
func (c *Climb) Step(l, p int) (up, down int) {
	t := c.t
	base, w := t.upChanBase[l], t.w[l]
	up, down = base+c.src*w+p, base+c.dst*w+p
	c.src, c.dst = int(t.parentOf[up]), int(t.parentOf[down])
	return up, down
}

// Nodes returns the indices of the nodes the two climbs have reached;
// after a minimal route's last step both are its NCA.
func (c Climb) Nodes() (src, dst int) { return c.src, c.dst }

// NCA returns the (level, index) of the route's nearest common
// ancestor switch.
func (r Route) NCA(t *Topology) (level, index int) {
	return len(r.Up), t.NCAIndex(r.Src, r.Up)
}

// Hops returns the total number of channel traversals (up + down).
func (r Route) Hops() int { return 2 * len(r.Up) }

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

// VerifyConnects replays the route hop by hop through the adjacency
// relations and reports whether it really leads from Src to Dst: up
// through Parent, then down through Child by the destination's label.
// This is the strong correctness check used by tests: Validate checks
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
