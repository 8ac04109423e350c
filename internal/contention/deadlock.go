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
// ones, and descending channels only on lower descending channels:
// every dependency climbs one rank order, which CheckRoute checks route
// by route. VerifyDeadlockFree checks acyclicity constructively for an
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
// certifies them without materializing xgft.Route values. Feed every
// route with Add, then call Verify. It is the reference CheckRoute is
// tested against.
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
// dst, as in xgft.Route). up is not retained. A route validate refuses
// is an error, and records nothing.
func (c *Certifier) Add(src, dst int, up []int) error {
	if err := validate(c.topo, src, dst, up); err != nil {
		return err
	}
	var down [xgft.MaxHeight]int32
	prev := int32(-1)
	walk := c.topo.Climb(src, dst)
	for l, p := range up {
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

// Verify reports an error describing a cycle if the dependencies of
// the routes added so far contain one.
func (c *Certifier) Verify() error { return c.g.verify() }

// validate refuses a route whose channel IDs would alias other wires or
// leave [0, TotalChannels): an endpoint off the tree, an ascent taller
// than the tree, a port outside its radix. Add and CheckRoute both call
// it, so they refuse the same routes with the same texts.
func validate(t *xgft.Topology, src, dst int, up []int) error {
	if src < 0 || src >= t.Leaves() || dst < 0 || dst >= t.Leaves() {
		return fmt.Errorf("contention: route %d->%d has an endpoint out of range [0,%d)", src, dst, t.Leaves())
	}
	if len(up) > t.Height() {
		return fmt.Errorf("contention: route %d->%d climbs %d levels on a tree of height %d", src, dst, len(up), t.Height())
	}
	for l, p := range up {
		if p < 0 || p >= t.W(l) {
			return fmt.Errorf("contention: route %d->%d up-port %d at level %d out of range [0,%d)", src, dst, p, l, t.W(l))
		}
	}
	return nil
}

// CheckRoute is the deadlock gate for one route, in Add's form: it
// refuses what Add refuses, then walks the route with xgft.Climb and
// refuses it unless each dependency leads to a higher rank — up wire
// l-1 to up wire l, down wire l to down wire l-1, and the turn at the
// top. Any set of routes it accepts, such as every table ever published
// with packets in flight across a swap, then has an acyclic channel
// dependency graph, and nothing has to be kept between calls.
func CheckRoute(t *xgft.Topology, src, dst int, up []int) error {
	if err := validate(t, src, dst, up); err != nil {
		return err
	}
	var u, d int32                       // the wires of the step just taken
	upRank, downRank := -1, 2*t.Height() // below and above every rank before the first step
	walk := t.Climb(src, dst)
	for l, p := range up {
		wu, wd := walk.Step(l, p)
		pu, pd := u, d
		u, d = int32(2*wu+1), int32(2*wd)
		ru, rd := rank(t, u), rank(t, d)
		if ru <= upRank {
			return rankError(t, src, dst, pu, u)
		}
		if rd >= downRank {
			return rankError(t, src, dst, d, pd)
		}
		upRank, downRank = ru, rd
	}
	if len(up) > 0 && upRank >= downRank {
		return rankError(t, src, dst, u, d)
	}
	return nil
}

// rank places a directed channel in the order up*/down* dependencies
// climb: the up channel of a wire leaving level l has rank l, its down
// channel 2h-1-l, the level read from the topology's channel numbering.
func rank(t *xgft.Topology, ch int32) int {
	l := t.ChannelLevel(int(ch >> 1))
	if ch&1 == 1 {
		return l
	}
	return 2*t.Height() - 1 - l
}

// rankError refuses a route for its dependency from channel a to b.
func rankError(t *xgft.Topology, src, dst int, a, b int32) error {
	return fmt.Errorf("contention: route %d->%d holds wire %d (%s, rank %d) while requesting wire %d (%s, rank %d), against the up*/down* rank order",
		src, dst, a>>1, dirName(a&1 == 1), rank(t, a), b>>1, dirName(b&1 == 1), rank(t, b))
}

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
