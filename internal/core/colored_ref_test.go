package core

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

// refColored is the optimizer as it stood before its state went flat:
// a map of group counts per channel and direction, a map of seen
// pairs, a private copy of the candidate ascents per flow. It is kept,
// unchanged but for the names, as what TestColoredMatchesReference
// holds the dense form to, assignment for assignment.
type refColored struct {
	topo     *xgft.Topology
	fallback Algorithm
	routes   map[int][]int // by pairKey
}

func newRefColored(t *xgft.Topology, phases []*pattern.Pattern, cfg ColoredConfig) *refColored {
	cfg = cfg.withDefaults()
	c := &refColored{topo: t, fallback: NewDModK(t), routes: make(map[int][]int)}
	for _, ph := range phases {
		c.optimizePhase(ph, cfg)
	}
	return c
}

func (c *refColored) pairKey(src, dst int) int { return src*c.topo.Leaves() + dst }

func (c *refColored) assignments() []xgft.Route {
	keys := make([]int, 0, len(c.routes))
	for key := range c.routes {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	n := c.topo.Leaves()
	out := make([]xgft.Route, len(keys))
	for i, key := range keys {
		out[i] = xgft.Route{Src: key / n, Dst: key % n, Up: c.routes[key]}
	}
	return out
}

// refPhaseState tracks, per channel and direction, how many flows of
// each endpoint group currently use it, plus the number of distinct
// groups. Potential = sum over channels of groups^2; distinct groups
// on one channel serialize each other (network contention), while
// flows within one group are already serialized at their endpoint and
// cost nothing extra (§IV).
type refPhaseState struct {
	topo       *xgft.Topology
	upCounts   []map[int]int // by source
	downCounts []map[int]int // by destination
	upGroups   []int
	downGroups []int
	potential  int64
}

func newRefPhaseState(t *xgft.Topology) *refPhaseState {
	n := t.TotalChannels()
	return &refPhaseState{
		topo:       t,
		upCounts:   make([]map[int]int, n),
		downCounts: make([]map[int]int, n),
		upGroups:   make([]int, n),
		downGroups: make([]int, n),
	}
}

// apply and cost visit the channels of the flow's route, both halves
// level by level: no two of them are the same, so the order is free.

func (st *refPhaseState) apply(f pattern.Flow, up []int, delta int) {
	c := st.topo.Climb(f.Src, f.Dst)
	for l, p := range up {
		u, d := c.Step(l, p)
		st.bump(st.upCounts, st.upGroups, u, f.Src, delta)
		st.bump(st.downCounts, st.downGroups, d, f.Dst, delta)
	}
}

// bump adds delta (+1 or -1) to the endpoint group's flow count on one
// directed channel, keeping the channel's group count and the
// potential in step.
func (st *refPhaseState) bump(counts []map[int]int, groups []int, ch, key, delta int) {
	if counts[ch] == nil {
		counts[ch] = make(map[int]int)
	}
	g := int64(groups[ch])
	counts[ch][key] += delta
	switch counts[ch][key] {
	case 0:
		if delta < 0 {
			groups[ch]--
			st.potential += (g-1)*(g-1) - g*g
		}
	case delta: // 0 -> 1 when adding
		if delta > 0 {
			groups[ch]++
			st.potential += (g+1)*(g+1) - g*g
		}
	}
}

// cost evaluates the potential delta of adding the flow with the given
// ascent without mutating state.
func (st *refPhaseState) cost(f pattern.Flow, up []int) int64 {
	var delta int64
	c := st.topo.Climb(f.Src, f.Dst)
	for l, p := range up {
		u, d := c.Step(l, p)
		if st.upCounts[u][f.Src] == 0 {
			g := int64(st.upGroups[u])
			delta += (g+1)*(g+1) - g*g
		}
		if st.downCounts[d][f.Dst] == 0 {
			g := int64(st.downGroups[d])
			delta += (g+1)*(g+1) - g*g
		}
	}
	return delta
}

func (c *refColored) optimizePhase(ph *pattern.Pattern, cfg ColoredConfig) {
	type job struct {
		flow pattern.Flow
		cand [][]int
		pick int
	}
	var jobs []*job
	seen := make(map[[2]int]bool)
	st := newRefPhaseState(c.topo)
	for _, f := range ph.Flows {
		if f.Src == f.Dst {
			continue
		}
		key := [2]int{f.Src, f.Dst}
		if seen[key] {
			continue
		}
		seen[key] = true
		if prior, ok := c.routes[c.pairKey(f.Src, f.Dst)]; ok {
			// Fixed by an earlier phase: count its load, don't move it.
			st.apply(f, prior, 1)
			continue
		}
		jobs = append(jobs, &job{flow: f, cand: c.candidates(f, cfg), pick: -1})
	}
	// Deterministic order: heaviest flows first, then by pair.
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].flow.Bytes != jobs[j].flow.Bytes {
			return jobs[i].flow.Bytes > jobs[j].flow.Bytes
		}
		if jobs[i].flow.Src != jobs[j].flow.Src {
			return jobs[i].flow.Src < jobs[j].flow.Src
		}
		return jobs[i].flow.Dst < jobs[j].flow.Dst
	})
	// Greedy construction.
	for _, jb := range jobs {
		best, bestCost := 0, int64(1)<<62
		for i, cand := range jb.cand {
			if cost := st.cost(jb.flow, cand); cost < bestCost {
				best, bestCost = i, cost
			}
		}
		jb.pick = best
		st.apply(jb.flow, jb.cand[best], 1)
	}
	// Hill-climbing sweeps.
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		improved := false
		for _, jb := range jobs {
			st.apply(jb.flow, jb.cand[jb.pick], -1)
			best, bestCost := jb.pick, st.cost(jb.flow, jb.cand[jb.pick])
			for i, cand := range jb.cand {
				if i == jb.pick {
					continue
				}
				if cost := st.cost(jb.flow, cand); cost < bestCost {
					best, bestCost = i, cost
				}
			}
			if best != jb.pick {
				improved = true
				jb.pick = best
			}
			st.apply(jb.flow, jb.cand[jb.pick], 1)
		}
		if !improved {
			break
		}
	}
	for _, jb := range jobs {
		c.routes[c.pairKey(jb.flow.Src, jb.flow.Dst)] = jb.cand[jb.pick]
	}
}

// candidates enumerates ascent vectors for a flow: the full cartesian
// product of up-port choices when small, otherwise the two mod-k
// defaults plus a deterministic random sample.
func (c *refColored) candidates(f pattern.Flow, cfg ColoredConfig) [][]int {
	l := c.topo.NCALevel(f.Src, f.Dst)
	total := 1
	for lvl := 0; lvl < l; lvl++ {
		total *= c.topo.W(lvl)
		if total > cfg.MaxCandidates {
			break
		}
	}
	if total <= cfg.MaxCandidates {
		out := make([][]int, 0, total)
		cur := make([]int, l)
		for {
			out = append(out, append([]int(nil), cur...))
			lvl := 0
			for ; lvl < l; lvl++ {
				cur[lvl]++
				if cur[lvl] < c.topo.W(lvl) {
					break
				}
				cur[lvl] = 0
			}
			if lvl == l {
				break
			}
		}
		return out
	}
	out := [][]int{
		c.fallback.Route(f.Src, f.Dst).Up,
		NewSModK(c.topo).Route(f.Src, f.Dst).Up,
	}
	for k := 0; len(out) < cfg.MaxCandidates; k++ {
		cand := make([]int, l)
		for lvl := 0; lvl < l; lvl++ {
			cand[lvl] = uniform(mix(cfg.Seed, uint64(f.Src), uint64(f.Dst), uint64(k), uint64(lvl)), c.topo.W(lvl))
		}
		out = append(out, cand)
	}
	return out
}

// TestColoredMatchesReference holds the dense optimizer to the map
// form: the same assignments, element for element, on slimmed and
// full, two- and three-level trees, each input as two phases that
// share pairs (so the "fixed by an earlier phase" arm runs), and once
// through the sampled-candidate path no caller takes today.
func TestColoredMatchesReference(t *testing.T) {
	trees := []*xgft.Topology{
		xgft.MustNew(2, []int{16, 16}, []int{1, 10}),
		xgft.MustNew(2, []int{16, 16}, []int{1, 16}),
		xgft.MustNew(3, []int{4, 4, 4}, []int{1, 4, 2}),
		xgft.MustNew(3, []int{4, 4, 4}, []int{2, 3, 2}),
	}
	for _, tp := range trees {
		n := tp.Leaves()
		inputs := map[string][]*pattern.Pattern{
			"uniform": {pattern.UniformRandom(n, 4, 1024, 7), pattern.UniformRandom(n, 4, 2048, 8)},
			"perm":    {pattern.KeyedRandomPermutation(n, 1024, 7), pattern.KeyedRandomPermutation(n, 1024, 8)},
			"tornado": {pattern.Tornado(n, 1024), pattern.UniformRandom(n, 2, 512, 9)},
			"shift":   {pattern.Shift(n, 5, 1024), pattern.Shift(n, 5, 4096)},
		}
		for name, phases := range inputs {
			for _, cfg := range []ColoredConfig{{Seed: 3}, {MaxCandidates: 3, Seed: 3}} {
				if cfg.MaxCandidates != 0 && name != "uniform" {
					continue // one sampled row a tree
				}
				got := NewColored(tp, phases, cfg).Assignments()
				want := newRefColored(tp, phases, cfg).assignments()
				if len(got) != len(want) {
					t.Fatalf("%s %s %+v: %d assignments, reference has %d", tp, name, cfg, len(got), len(want))
				}
				for i := range want {
					if got[i].Src != want[i].Src || got[i].Dst != want[i].Dst || !slices.Equal(got[i].Up, want[i].Up) {
						t.Fatalf("%s %s %+v: assignment %d is %+v, reference has %+v", tp, name, cfg, i, got[i], want[i])
					}
				}
			}
		}
	}
}
