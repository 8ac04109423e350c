package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

// Colored is the pattern-aware baseline of the paper's evaluation
// (the "Colored" scheme of the authors' ICS'09 work), reproduced here
// as a greedy NCA assignment with hill-climbing refinement (see
// README.md, "Substitutions and known deviations", #4). It is *not*
// oblivious: it knows the communication phases in advance and assigns
// NCAs so that groups of flows that are not already serialized at an
// endpoint avoid sharing channels. The paper uses it as the
// best-achievable envelope for a network of the same cost.
type Colored struct {
	topo     *xgft.Topology
	fallback Algorithm
	routes   map[int][]int // by pairKey
	// assigned is routes as a list in (src, dst) order, built by the
	// first Assignments call: sweeps that only score a Colored never
	// install one.
	assigned     []xgft.Route
	assignedOnce sync.Once
	cacheKey     string
}

// ColoredConfig tunes the optimizer.
type ColoredConfig struct {
	// MaxPasses bounds local-search sweeps per phase (default 8).
	MaxPasses int
	// MaxCandidates bounds the number of ascent vectors tried per
	// flow (default 4096); beyond it, candidates are the mod-k
	// defaults plus a deterministic pseudo-random sample.
	MaxCandidates int
	// Seed feeds candidate sampling for very wide trees.
	Seed uint64
}

func (c ColoredConfig) withDefaults() ColoredConfig {
	if c.MaxPasses <= 0 {
		c.MaxPasses = 8
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 4096
	}
	return c
}

// NewColored optimizes routes for the given communication phases
// (each phase contends only with itself, matching the paper's
// per-phase extraction of connectivity matrices). Pairs appearing in
// several phases keep their first assignment; pairs outside every
// phase fall back to D-mod-k.
func NewColored(t *xgft.Topology, phases []*pattern.Pattern, cfg ColoredConfig) *Colored {
	cfg = cfg.withDefaults()
	c := &Colored{
		topo:     t,
		fallback: NewDModK(t),
		routes:   make(map[int][]int),
	}
	for _, ph := range phases {
		c.optimizePhase(ph, cfg)
	}
	id := mix(uint64(cfg.MaxPasses), uint64(cfg.MaxCandidates), cfg.Seed)
	var totalBytes int64
	for _, ph := range phases {
		id = mix(id, ph.Fingerprint())
		totalBytes += ph.TotalBytes()
	}
	// Cheap exact invariants (phase count, byte total) ride along with
	// the hash so a 64-bit collision alone cannot alias two keys,
	// matching the tableKey design.
	c.cacheKey = fmt.Sprintf("colored/%d/%#x/%#x", len(phases), totalBytes, id)
	return c
}

// Name implements Algorithm.
func (c *Colored) Name() string { return "colored" }

// CacheKey marks Colored routes as memoizable: the optimizer is
// deterministic in (topology, input phases, config), all of which the
// key encodes.
func (c *Colored) CacheKey() string { return c.cacheKey }

// Fallback returns the scheme that routes every pair Colored assigned
// nothing to.
func (c *Colored) Fallback() Algorithm { return c.fallback }

// Assignments returns the routes Colored assigned explicitly, in
// (src, dst) order: together with Fallback's table they are the whole
// of Colored's, which is how a route store installs it without asking
// Route for every pair. The slice and its ascents are shared; callers
// must not modify them.
func (c *Colored) Assignments() []xgft.Route {
	c.assignedOnce.Do(func() {
		keys := make([]int, 0, len(c.routes))
		for key := range c.routes {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		n := c.topo.Leaves()
		c.assigned = make([]xgft.Route, len(keys))
		for i, key := range keys {
			c.assigned[i] = xgft.Route{Src: key / n, Dst: key % n, Up: c.routes[key]}
		}
	})
	return c.assigned
}

// pairKey indexes the assignment map by pair: one word hashes faster
// than two, and a table build looks up every flow.
func (c *Colored) pairKey(src, dst int) int { return src*c.topo.Leaves() + dst }

// Route implements Algorithm.
func (c *Colored) Route(src, dst int) xgft.Route {
	if up, ok := c.routes[c.pairKey(src, dst)]; ok {
		return xgft.Route{Src: src, Dst: dst, Up: append([]int(nil), up...)}
	}
	return c.fallback.Route(src, dst)
}

// phaseState tracks, per channel and direction, how many flows of
// each endpoint group currently use it, plus the number of distinct
// groups. Potential = sum over channels of groups^2; distinct groups
// on one channel serialize each other (network contention), while
// flows within one group are already serialized at their endpoint and
// cost nothing extra (§IV).
type phaseState struct {
	topo       *xgft.Topology
	upCounts   []map[int]int // by source
	downCounts []map[int]int // by destination
	upGroups   []int
	downGroups []int
	potential  int64
}

func newPhaseState(t *xgft.Topology) *phaseState {
	n := t.TotalChannels()
	return &phaseState{
		topo:       t,
		upCounts:   make([]map[int]int, n),
		downCounts: make([]map[int]int, n),
		upGroups:   make([]int, n),
		downGroups: make([]int, n),
	}
}

// apply and cost visit the channels xgft.Route.Walk would — the ascent
// from the source, the descent towards the destination — but inline,
// with no Route value and no callback: they are the optimizer's inner
// loop, called once per candidate per flow per sweep. apply keeps
// Walk's order (up, then down from the NCA); cost only sums integers
// over channels no two of which are the same, so it takes both halves
// level by level.

func (st *phaseState) apply(f pattern.Flow, up []int, delta int) {
	t := st.topo
	idx := f.Src
	for l, p := range up {
		ch := t.UpChannelID(l, idx, p)
		st.bump(st.upCounts, st.upGroups, ch, f.Src, delta)
		idx = t.ChannelParent(ch)
	}
	var down [xgft.MaxHeight]int
	idx = f.Dst
	for l, p := range up {
		down[l] = t.UpChannelID(l, idx, p)
		idx = t.ChannelParent(down[l])
	}
	for l := len(up) - 1; l >= 0; l-- {
		st.bump(st.downCounts, st.downGroups, down[l], f.Dst, delta)
	}
}

// bump adds delta (+1 or -1) to the endpoint group's flow count on one
// directed channel, keeping the channel's group count and the
// potential in step.
func (st *phaseState) bump(counts []map[int]int, groups []int, ch, key, delta int) {
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
func (st *phaseState) cost(f pattern.Flow, up []int) int64 {
	t := st.topo
	var delta int64
	a, b := f.Src, f.Dst // the nodes the ascent and the descent pass at level l
	for l, p := range up {
		ch := t.UpChannelID(l, a, p)
		if st.upCounts[ch][f.Src] == 0 {
			g := int64(st.upGroups[ch])
			delta += (g+1)*(g+1) - g*g
		}
		a = t.ChannelParent(ch)
		ch = t.UpChannelID(l, b, p)
		if st.downCounts[ch][f.Dst] == 0 {
			g := int64(st.downGroups[ch])
			delta += (g+1)*(g+1) - g*g
		}
		b = t.ChannelParent(ch)
	}
	return delta
}

func (c *Colored) optimizePhase(ph *pattern.Pattern, cfg ColoredConfig) {
	type job struct {
		flow pattern.Flow
		cand [][]int
		pick int
	}
	var jobs []*job
	seen := make(map[[2]int]bool)
	st := newPhaseState(c.topo)
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
func (c *Colored) candidates(f pattern.Flow, cfg ColoredConfig) [][]int {
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

// MaxGroups reports the maximum per-channel group contention of the
// routes Colored assigned for a phase — used by tests to verify that
// permutations on full trees are routed conflict-free.
func (c *Colored) MaxGroups(ph *pattern.Pattern) int {
	st := newPhaseState(c.topo)
	for _, f := range ph.Flows {
		if f.Src == f.Dst {
			continue
		}
		st.apply(f, c.Route(f.Src, f.Dst).Up, 1)
	}
	max := 0
	for _, g := range st.upGroups {
		if g > max {
			max = g
		}
	}
	for _, g := range st.downGroups {
		if g > max {
			max = g
		}
	}
	return max
}
