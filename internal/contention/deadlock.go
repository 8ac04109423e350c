package contention

import (
	"fmt"
	"math"

	"repro/internal/xgft"
)

// Deadlock analysis (§V: "finding a minimal deadlock-free path").
// Up*/down* routing on a fat tree is deadlock-free because the
// channel dependency graph (Dally & Seitz) is acyclic: ascending
// channels only depend on higher ascending channels or on descending
// ones, and descending channels only on lower descending channels.
// VerifyDeadlockFree checks that property constructively for an
// arbitrary route set, so route tables loaded from files (or produced
// by future non-minimal schemes) can be certified before simulation.
//
// Channel IDs are dense in [0, TotalChannels), so the graph lives in
// flat slices indexed by the directed channel 2*wire+dir (dir 1 is
// up): a linked adjacency list per channel in first-seen edge order,
// a colour per channel, an explicit DFS stack. Ascending that index
// is the (wire, down-before-up) root order a reported cycle depends
// on.

// cdg is a channel dependency graph under construction.
type cdg struct {
	head, tail []int32 // per directed channel: first and last out-edge, -1 when none
	next, to   []int32 // per edge: the channel's next out-edge, the edge's target
	seen       edgeSet
	// lastFrom[b] is the source of the edge most recently added into b,
	// -1 before the first: an exact "already have it" for the repeats a
	// route table is made of (a destination's descent chain is the same
	// from every source), answered without probing seen.
	lastFrom []int32
}

// newCDG returns an empty graph over channels directed channels.
func newCDG(channels int) *cdg {
	g := &cdg{head: make([]int32, channels), tail: make([]int32, channels), lastFrom: make([]int32, channels)}
	for i := range g.head {
		g.head[i], g.lastFrom[i] = -1, -1
	}
	return g
}

// addEdge records that some route holds channel a while requesting b.
func (g *cdg) addEdge(a, b int32) {
	if g.lastFrom[b] == a {
		return
	}
	g.lastFrom[b] = a
	if !g.seen.add(uint64(a)<<32 | uint64(b)) {
		return
	}
	e := int32(len(g.to))
	g.to = append(g.to, b)
	g.next = append(g.next, -1)
	if g.head[a] < 0 {
		g.head[a] = e
	} else {
		g.next[g.tail[a]] = e
	}
	g.tail[a] = e
}

// addPath records the dependencies of one route given as the directed
// channels it traverses, in path order. Any sequence is accepted, not
// only the up*/down* ones xgft.Route can express — which is how tests
// hand the checker a cycle.
func (g *cdg) addPath(path []int32) error {
	for _, c := range path {
		if c < 0 || int(c) >= len(g.head) {
			return fmt.Errorf("contention: directed channel %d out of range [0,%d)", c, len(g.head))
		}
	}
	for i := 1; i < len(path); i++ {
		g.addEdge(path[i-1], path[i])
	}
	return nil
}

// truncate drops every edge added after the first edges ones, leaving
// the graph it was then: the adjacency lists are cut where they cross
// the mark (a channel's out-edges are linked in ascending edge order),
// the edge set is rebuilt from what remains, and lastFrom — only a
// shortcut for "already have it" — is forgotten. It costs a pass over
// the graph, paid only when a candidate is refused.
func (g *cdg) truncate(edges int) {
	if edges >= len(g.to) {
		return
	}
	g.to, g.next = g.to[:edges], g.next[:edges]
	g.seen = edgeSet{}
	for a := range g.head {
		g.lastFrom[a] = -1
		last := int32(-1)
		for e := g.head[a]; e >= 0 && int(e) < edges; e = g.next[e] {
			g.seen.add(uint64(a)<<32 | uint64(g.to[e]))
			last = e
		}
		if last < 0 {
			g.head[a] = -1
		} else {
			g.next[last] = -1
		}
		g.tail[a] = last
	}
}

// verify reports the first dependency cycle an iterative three-colour
// DFS meets, rooted at every channel with out-edges in ascending
// order.
func (g *cdg) verify() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(g.head))
	cursor := append([]int32(nil), g.head...) // per channel: next out-edge to follow
	var stack []int32
	for start := range g.head {
		if g.head[start] < 0 || color[start] != white {
			continue
		}
		color[start] = gray
		stack = append(stack[:0], int32(start))
		for len(stack) > 0 {
			node := stack[len(stack)-1]
			e := cursor[node]
			if e < 0 {
				color[node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			cursor[node] = g.next[e]
			child := g.to[e]
			switch color[child] {
			case white:
				color[child] = gray
				stack = append(stack, child)
			case gray:
				return fmt.Errorf("contention: channel dependency cycle through wire %d (%s) and wire %d (%s)",
					node>>1, dirName(node&1 == 1), child>>1, dirName(child&1 == 1))
			}
		}
	}
	return nil
}

func dirName(up bool) string {
	if up {
		return "up"
	}
	return "down"
}

// edgeSet is an open-addressed set of directed edges keyed from<<32|to
// (stored plus one, so zero marks an empty slot).
type edgeSet struct {
	slots []uint64
	n     int
}

// add inserts the edge and reports whether it was absent.
func (s *edgeSet) add(edge uint64) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	key := edge + 1
	mask := uint64(len(s.slots) - 1)
	for i := edgeHash(key) & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			s.n++
			return true
		case key:
			return false
		}
	}
}

func (s *edgeSet) grow() {
	old := s.slots
	s.slots = make([]uint64, max(1024, 2*len(old)))
	mask := uint64(len(s.slots) - 1)
	for _, key := range old {
		if key == 0 {
			continue
		}
		i := edgeHash(key) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = key
	}
}

// edgeHash spreads a key over the table (Fibonacci hashing; the high
// bits of the product are the well-mixed ones).
func edgeHash(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> 32 }

// Certifier accumulates the channel dependency graph of a route set
// fed one route at a time, so a caller holding routes in another form
// (the fabric's packed rows) certifies them without materializing
// xgft.Route values. Feed every route with Add, then call Verify.
//
// A certifier may also be kept and grown: the graph of a route set's
// union with everything added before it is acyclic only if the route
// set's own graph is (a subgraph of an acyclic graph is acyclic), so a
// caller that certifies a sequence of overlapping route sets adds only
// the routes it has not added before. Mark and Rollback bracket such an
// addition, so a set that fails Verify leaves nothing behind.
type Certifier struct {
	topo *xgft.Topology
	g    *cdg
}

// NewCertifier returns an empty certifier for routes on t.
func NewCertifier(t *xgft.Topology) (*Certifier, error) {
	n := t.TotalChannels()
	if n > math.MaxInt32/2 {
		return nil, fmt.Errorf("contention: %d channels are too many to certify", n)
	}
	return &Certifier{topo: t, g: newCDG(2 * n)}, nil
}

// Add records the dependencies of the route from src to dst whose
// ascent takes up-port up[l] at level l (the descent mirrors it from
// dst, as in xgft.Route). up is not retained. A route with an endpoint
// or a port outside the topology is an error: its channel IDs would
// alias other wires or fall outside [0, TotalChannels).
func (c *Certifier) Add(src, dst int, up []int) error {
	t := c.topo
	if src < 0 || src >= t.Leaves() || dst < 0 || dst >= t.Leaves() {
		return fmt.Errorf("contention: route %d->%d has an endpoint out of range [0,%d)", src, dst, t.Leaves())
	}
	if len(up) > t.Height() {
		return fmt.Errorf("contention: route %d->%d climbs %d levels on a tree of height %d", src, dst, len(up), t.Height())
	}
	var down [xgft.MaxHeight]int32
	prev := int32(-1)
	walk := t.Climb(src, dst)
	for l, p := range up {
		if p < 0 || p >= t.W(l) {
			return fmt.Errorf("contention: route %d->%d up-port %d at level %d out of range [0,%d)", src, dst, p, l, t.W(l))
		}
		u, d := walk.Step(l, p)
		if prev >= 0 {
			c.g.addEdge(prev, int32(2*u+1))
		}
		prev = int32(2*u + 1)
		down[l] = int32(2 * d)
	}
	for l := len(up) - 1; l >= 0; l-- {
		c.g.addEdge(prev, down[l])
		prev = down[l]
	}
	return nil
}

// AddPath records the dependencies of one route given as the directed
// channels it traverses in path order, 2*wire+1 for a wire's up channel
// and 2*wire for its down channel — the form Add lowers a route to.
// Any sequence is accepted, not only the up*/down* ones Add can express.
func (c *Certifier) AddPath(path []int32) error { return c.g.addPath(path) }

// Verify reports an error describing a cycle if the dependencies of
// the routes added so far contain one.
func (c *Certifier) Verify() error { return c.g.verify() }

// Mark returns the graph's position: the number of distinct
// dependencies recorded so far. Adding routes whose dependencies are
// all present leaves it unchanged.
func (c *Certifier) Mark() int { return len(c.g.to) }

// Rollback returns the graph to what it was when Mark returned mark,
// dropping every dependency recorded since.
func (c *Certifier) Rollback(mark int) { c.g.truncate(mark) }

// VerifyDeadlockFree builds the channel dependency graph induced by
// the routes (an edge from channel A to channel B wherever some route
// traverses A immediately before B) and reports an error describing a
// cycle if one exists, or the first malformed route.
func VerifyDeadlockFree(t *xgft.Topology, routes []xgft.Route) error {
	c, err := NewCertifier(t)
	if err != nil {
		return err
	}
	for _, r := range routes {
		if err := c.Add(r.Src, r.Dst, r.Up); err != nil {
			return err
		}
	}
	return c.Verify()
}
