package core

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

// NewLevelWise returns the pattern-aware permutation scheduler of
// Ding, Hoare, Jones & Melhem ("Level-wise scheduling algorithm for
// fat tree interconnection networks", SC'06 — the paper's ref. [15],
// cited as the efficient algorithm for known permutations on k-ary
// n-trees) as a FixedTable named "level-wise". Ascent ports are
// assigned level by level: at level l the flows still climbing form a
// bipartite multigraph between their current up-side and down-side
// ancestors; a König edge coloring with w_{l+1} colors assigns the
// ports so that no two flows share an up or down channel — a
// constructive proof of the rearrangeability the paper invokes in §II.
//
// On full k-ary n-trees any (partial) permutation is routed with zero
// network contention. On slimmed trees, where conflicts are
// unavoidable, the balanced folding of ColorBipartiteBalanced spreads
// them evenly (ceil(D/w) flows per channel), which is what §VII-A
// demands of a good slimmed-tree schedule.
//
// Every phase of the pattern sequence is scheduled independently
// (phases contend only with themselves). Non-permutation phases are
// legal: degrees just exceed one and the balanced coloring spreads
// them; a phase over more endpoints than the tree has leaves, or with a
// flow off the tree, is an error. Pairs outside the phases fall back
// to D-mod-k.
func NewLevelWise(t *xgft.Topology, phases []*pattern.Pattern) (*FixedTable, error) {
	lw := NewFixedTable(t, "level-wise", nil)
	for pi, ph := range phases {
		if err := scheduleLevelWise(lw, ph); err != nil {
			return nil, fmt.Errorf("core: level-wise phase %d: %w", pi, err)
		}
	}
	return lw, nil
}

type lwFlow struct {
	src, dst int
	nca      int
	up       []int
}

// scheduleLevelWise schedules one phase's pairs that lw has no route
// for yet into lw.
func scheduleLevelWise(lw *FixedTable, ph *pattern.Pattern) error {
	t := lw.topo
	if err := fits(t, ph); err != nil {
		return err
	}
	var flows []*lwFlow
	seen := make(map[[2]int]bool)
	n := uint(t.Leaves())
	for _, f := range ph.Flows {
		if uint(f.Src) >= n || uint(f.Dst) >= n {
			return fmt.Errorf("core: flow %d->%d has an endpoint off the %d-leaf tree", f.Src, f.Dst, n)
		}
		if f.Src == f.Dst {
			continue
		}
		key := [2]int{f.Src, f.Dst}
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, done := lw.routes[lw.pairKey(f.Src, f.Dst)]; done {
			continue // fixed by an earlier phase
		}
		l := t.NCALevel(f.Src, f.Dst)
		flows = append(flows, &lwFlow{src: f.Src, dst: f.Dst, nca: l, up: make([]int, l)})
	}
	// Level 0: the leaf's w1 ports. Every flow from one leaf shares
	// the single adapter anyway; use port 0 balanced by flow count
	// when w1 > 1 (the paper's trees all have w1 = 1).
	if t.W(0) > 1 {
		perLeaf := make(map[int]int)
		for _, f := range flows {
			f.up[0] = perLeaf[f.src] % t.W(0)
			perLeaf[f.src]++
		}
	}
	// Levels 1..h-1: edge-color the climbing flows.
	for l := 1; l < t.Height(); l++ {
		var climbing []*lwFlow
		var edges [][2]int
		for _, f := range flows {
			if f.nca <= l {
				continue
			}
			upAnc := t.NCAIndex(f.src, f.up[:l])
			downAnc := t.NCAIndex(f.dst, f.up[:l])
			climbing = append(climbing, f)
			edges = append(edges, [2]int{upAnc, downAnc})
		}
		if len(climbing) == 0 {
			break
		}
		nodes := t.NodesAt(l)
		colors, err := ColorBipartiteBalanced(nodes, nodes, t.W(l), edges)
		if err != nil {
			return err
		}
		for i, f := range climbing {
			f.up[l] = colors[i]
		}
	}
	for _, f := range flows {
		if err := lw.Set(xgft.Route{Src: f.src, Dst: f.dst, Up: f.up}); err != nil {
			return err
		}
	}
	return nil
}
