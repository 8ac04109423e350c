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

// VerifyRoutes is Verify over the routes lowered to channel paths
// through Route.Walk, the way the map verifier read them.
func VerifyRoutes(t *xgft.Topology, routes []xgft.Route) error {
	paths := make([][]Channel, len(routes))
	for i, r := range routes {
		r.Walk(t, func(_, _, _, wire int, up bool) {
			paths[i] = append(paths[i], Channel{Wire: wire, Up: up})
		})
	}
	return Verify(paths)
}
