// Package oracle is the map-keyed channel-dependency verifier the dense
// one in package contention replaced, kept as a test oracle: same
// edges, same sorted DFS roots, same error text, over Go maps keyed by
// Channel structs. It shares no code with the verifier it checks, and
// lives outside the _test files so that other packages' differential
// tests (the fabric's derived generations) can certify against it too.
package oracle

import (
	"fmt"
	"sort"

	"repro/internal/xgft"
)

// Channel identifies a directed channel: wire ID plus direction.
type Channel struct {
	Wire int
	Up   bool
}

// Verify checks the dependency graph of routes given as the directed
// channels each traverses, in path order, and reports the first cycle
// a DFS rooted at the channels in (wire, down-before-up) order meets.
func Verify(paths [][]Channel) error {
	adj := make(map[Channel][]Channel)
	seenEdge := make(map[[2]Channel]bool)
	for _, path := range paths {
		for i := 1; i < len(path); i++ {
			e := [2]Channel{path[i-1], path[i]}
			if !seenEdge[e] {
				seenEdge[e] = true
				adj[e[0]] = append(adj[e[0]], e[1])
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[Channel]int)
	type frame struct {
		node Channel
		next int
	}
	starts := make([]Channel, 0, len(adj))
	for start := range adj {
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool {
		if starts[i].Wire != starts[j].Wire {
			return starts[i].Wire < starts[j].Wire
		}
		return !starts[i].Up && starts[j].Up
	})
	for _, start := range starts {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: start}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				child := adj[f.node][f.next]
				f.next++
				switch color[child] {
				case white:
					color[child] = gray
					stack = append(stack, frame{node: child})
				case gray:
					return fmt.Errorf("contention: channel dependency cycle through wire %d (%s) and wire %d (%s)",
						f.node.Wire, dirName(f.node.Up), child.Wire, dirName(child.Up))
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
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

// VerifyRoutes is Verify over the routes lowered to channel paths by
// Lower.
func VerifyRoutes(t *xgft.Topology, routes []xgft.Route) error {
	paths := make([][]Channel, len(routes))
	for i, r := range routes {
		paths[i] = Lower(t, r)
	}
	return Verify(paths)
}

// Lower returns the directed channels the route traverses, in path
// order, by a lowering of its own that shares no walk with the code
// the oracles check: it names the NCA by the source's label with the
// ascent's W-digits swapped in, descends from it towards both
// endpoints through Child, and numbers each wire by its child-side
// node and the up-port UpPortOf finds towards the parent. It uses
// neither Parent nor the rule that the descent climbs from the
// destination through the same ports.
func Lower(t *xgft.Topology, r xgft.Route) []Channel {
	top := len(r.Up)
	label := t.Label(0, r.Src)
	copy(label, r.Up)
	nca := t.Index(top, label)
	path := make([]Channel, 2*top)
	for i, end := range [2]int{r.Src, r.Dst} {
		digits := t.Label(0, end)
		node := nca
		for l := top; l > 0; l-- {
			child := t.Child(l, node, digits[l-1])
			wire := t.UpChannelID(l-1, child, t.UpPortOf(l-1, node))
			if i == 0 {
				path[l-1] = Channel{Wire: wire, Up: true}
			} else {
				path[2*top-l] = Channel{Wire: wire}
			}
			node = child
		}
	}
	return path
}
