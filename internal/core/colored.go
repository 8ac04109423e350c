package core

import (
	"cmp"
	"fmt"
	"slices"
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
//
// Its routes are a FixedTable over D-mod-k, keyed by pair and written
// unvalidated: every ascent is one of the optimizer's candidates.
type Colored struct {
	table *FixedTable
	// assigned is the table's explicit routes as a list in (src, dst)
	// order, built by the first Assignments call: sweeps that only
	// score a Colored never install one.
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
// phase fall back to D-mod-k. A flow with an endpoint outside
// [0, t.Leaves()) is skipped: there is no error to return it in
// (NewByName refuses such a phase before constructing).
func NewColored(t *xgft.Topology, phases []*pattern.Pattern, cfg ColoredConfig) *Colored {
	cfg = cfg.withDefaults()
	id := mix(uint64(cfg.MaxPasses), uint64(cfg.MaxCandidates), cfg.Seed)
	var totalBytes int64
	flows := 0
	for _, ph := range phases {
		id = mix(id, ph.Fingerprint())
		totalBytes += ph.TotalBytes()
		flows += len(ph.Flows)
	}
	c := &Colored{table: &FixedTable{topo: t, name: "colored", fallback: NewDModK(t), routes: make(map[int][]int, flows)}}
	n := t.Leaves()
	o := &optimizer{
		c:     c,
		cfg:   cfg,
		st:    newPhaseState(t),
		smodk: NewSModK(t),
		seen:  make([]uint64, (n*n+63)/64),
		full:  make([][][]int, t.Height()+1),
	}
	for _, ph := range phases {
		o.phase(ph)
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
func (c *Colored) Fallback() Algorithm { return c.table.fallback }

// Assignments returns the routes Colored assigned explicitly, in
// (src, dst) order: together with Fallback's table they are the whole
// of Colored's, which is how a route store installs it without asking
// Route for every pair. The slice and its ascents are shared; callers
// must not modify them.
func (c *Colored) Assignments() []xgft.Route {
	c.assignedOnce.Do(func() {
		keys := c.table.sortedKeys()
		n := c.table.topo.Leaves()
		c.assigned = make([]xgft.Route, len(keys))
		for i, key := range keys {
			c.assigned[i] = xgft.Route{Src: key / n, Dst: key % n, Up: c.table.routes[key]}
		}
	})
	return c.assigned
}

// Route implements Algorithm.
func (c *Colored) Route(src, dst int) xgft.Route { return c.table.Route(src, dst) }

// phaseState tracks, per channel and direction, how many flows of
// each endpoint group currently use it, plus the number of distinct
// groups. The optimizer minimizes the sum over channels of groups^2:
// distinct groups on one channel serialize each other (network
// contention), while flows within one group are already serialized at
// their endpoint and cost nothing extra (§IV).
//
// Only the leaves under a channel's child-side node can send up it or
// receive down it (Topology.LeavesUnder), so a channel leaving level l
// owns m_1*...*m_l consecutive cells, one per such leaf, and slot[ch]
// is its first cell's index less its first leaf: leaf x's count on ch
// is counts[slot[ch]+x]. A state holds sum_l ChannelsAt(l)*m_1*...*m_l
// four-byte cells a direction (2 816 on XGFT(2;16,16;1,10), 1.1 M on
// XGFT(3;16,16,16;1,16,16)) and is cleared, not rebuilt, between phases.
type phaseState struct {
	topo       *xgft.Topology
	slot       []int32 // by channel
	upCounts   []int32 // by slot[ch] + source
	downCounts []int32 // by slot[ch] + destination
	upGroups   []int32 // by channel
	downGroups []int32
}

func newPhaseState(t *xgft.Topology) *phaseState {
	n := t.TotalChannels()
	st := &phaseState{
		topo:       t,
		slot:       make([]int32, n),
		upGroups:   make([]int32, n),
		downGroups: make([]int32, n),
	}
	cells, span := 0, 1
	for l := 0; l < t.Height(); l++ {
		for idx := 0; idx < t.NodesAt(l); idx++ {
			lo, _ := t.LeavesUnder(l, idx)
			for p := 0; p < t.W(l); p++ {
				st.slot[t.UpChannelID(l, idx, p)] = int32(cells - lo)
				cells += span
			}
		}
		span *= t.M(l)
	}
	st.upCounts = make([]int32, cells)
	st.downCounts = make([]int32, cells)
	return st
}

// onTree reports whether both endpoints are leaves: a flow with one
// outside would index another channel's cells.
func (st *phaseState) onTree(f pattern.Flow) bool {
	n := st.topo.Leaves()
	return f.Src >= 0 && f.Src < n && f.Dst >= 0 && f.Dst < n
}

// apply and cost visit the channels of the flow's route — the ascent
// climbs from the source, the descent from the destination, through
// the same ports — with no Route value: they are the optimizer's inner
// loop, called once per candidate per flow per sweep. No two of those
// channels are the same, so the order is free.

//repro:hotpath
func (st *phaseState) apply(f pattern.Flow, up []int, delta int32) {
	c := st.topo.Climb(f.Src, f.Dst)
	for l, p := range up {
		u, d := c.Step(l, p)
		bump(st.upCounts, st.upGroups, u, int(st.slot[u])+f.Src, delta)
		bump(st.downCounts, st.downGroups, d, int(st.slot[d])+f.Dst, delta)
	}
}

// bump adds delta (+1 or -1) to one endpoint group's flow count on one
// directed channel, keeping the channel's group count in step.
//
//repro:hotpath
func bump(counts, groups []int32, ch, cell int, delta int32) {
	was := counts[cell]
	counts[cell] = was + delta
	if was == 0 {
		groups[ch]++
	} else if was+delta == 0 {
		groups[ch]--
	}
}

// cost evaluates the potential delta of adding the flow with the given
// ascent without mutating state: a channel of g groups the flow's own
// group is not on yet goes to g+1, (g+1)^2 - g^2 = 2g+1 dearer.
//
//repro:hotpath
func (st *phaseState) cost(f pattern.Flow, up []int) int64 {
	var delta int64
	c := st.topo.Climb(f.Src, f.Dst)
	for l, p := range up {
		u, d := c.Step(l, p)
		if st.upCounts[int(st.slot[u])+f.Src] == 0 {
			delta += 2*int64(st.upGroups[u]) + 1
		}
		if st.downCounts[int(st.slot[d])+f.Dst] == 0 {
			delta += 2*int64(st.downGroups[d]) + 1
		}
	}
	return delta
}

// job is one flow the optimizer places: its candidate ascents (shared
// with every flow of the same NCA level unless sampled) and the pick.
type job struct {
	flow pattern.Flow
	cand [][]int
	pick int
}

// optimizer is what NewColored builds once and every phase reuses.
type optimizer struct {
	c     *Colored
	cfg   ColoredConfig
	st    *phaseState
	smodk Algorithm // the sampled candidates' second default
	seen  []uint64  // bitmap by pairKey: pairs the current phase has listed
	full  [][][]int // by NCA level: every ascent, enumerated on first use
	jobs  []job
}

func (o *optimizer) phase(ph *pattern.Pattern) {
	tbl, st := o.c.table, o.st
	clear(st.upCounts)
	clear(st.downCounts)
	clear(st.upGroups)
	clear(st.downGroups)
	clear(o.seen)
	jobs := o.jobs[:0]
	for _, f := range ph.Flows {
		if f.Src == f.Dst || !st.onTree(f) {
			continue
		}
		key := tbl.pairKey(f.Src, f.Dst)
		if o.seen[key>>6]&(1<<(key&63)) != 0 {
			continue
		}
		o.seen[key>>6] |= 1 << (key & 63)
		if prior, ok := tbl.routes[key]; ok {
			// Fixed by an earlier phase: count its load, don't move it.
			st.apply(f, prior, 1)
			continue
		}
		jobs = append(jobs, job{flow: f, cand: o.candidates(f)})
	}
	o.jobs = jobs
	// Deterministic order: heaviest flows first, then by pair.
	slices.SortFunc(jobs, func(x, y job) int {
		return cmp.Or(cmp.Compare(y.flow.Bytes, x.flow.Bytes),
			cmp.Compare(x.flow.Src, y.flow.Src), cmp.Compare(x.flow.Dst, y.flow.Dst))
	})
	// Pass 0 is the greedy construction: each flow in turn takes its
	// cheapest ascent given the ones before it, the first on ties. The
	// later passes are hill-climbing sweeps: lift a flow, put it back
	// where it is cheapest now, stay put on ties.
	for pass := 0; pass <= o.cfg.MaxPasses; pass++ {
		improved := pass == 0
		for j := range jobs {
			jb := &jobs[j]
			if pass > 0 {
				st.apply(jb.flow, jb.cand[jb.pick], -1)
			}
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
		tbl.routes[tbl.pairKey(jb.flow.Src, jb.flow.Dst)] = jb.cand[jb.pick]
	}
}

// candidates returns the ascent vectors to try for a flow: the full
// cartesian product of up-port choices when small — it depends on the
// pair's NCA level alone, so one read-only set serves every such flow
// — otherwise the two mod-k defaults plus a deterministic random
// sample of the flow's own.
func (o *optimizer) candidates(f pattern.Flow) [][]int {
	t := o.st.topo
	l := t.NCALevel(f.Src, f.Dst)
	if total := t.NCACount(l); total <= o.cfg.MaxCandidates {
		if o.full[l] == nil {
			arena := make([]int, total*l)
			o.full[l] = make([][]int, total)
			for i := range o.full[l] {
				cand := arena[i*l : (i+1)*l : (i+1)*l]
				for lvl, rest := 0, i; lvl < l; lvl++ {
					cand[lvl], rest = rest%t.W(lvl), rest/t.W(lvl)
				}
				o.full[l][i] = cand
			}
		}
		return o.full[l]
	}
	out := [][]int{
		o.c.Fallback().Route(f.Src, f.Dst).Up,
		o.smodk.Route(f.Src, f.Dst).Up,
	}
	for k := 0; len(out) < o.cfg.MaxCandidates; k++ {
		cand := make([]int, l)
		for lvl := 0; lvl < l; lvl++ {
			cand[lvl] = uniform(mix(o.cfg.Seed, uint64(f.Src), uint64(f.Dst), uint64(k), uint64(lvl)), t.W(lvl))
		}
		out = append(out, cand)
	}
	return out
}
