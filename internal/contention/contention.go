// Package contention implements the combinatorial contention analysis
// of the paper (§IV, §VII): per-channel loads of a routed pattern,
// the endpoint-vs-network contention distinction, the grouped
// contention metric of the authors' ICS'09 work (flows serialized at
// an endpoint share channels for free), and analytic completion-time
// bounds that normalize against the ideal full crossbar. It also holds
// the §V deadlock checks: CheckRoute, the stateless per-route gate that
// a route climbs the up*/down* rank order, and VerifyDeadlockFree, the
// channel-dependency-graph certificate of a whole route set.
package contention

import (
	"fmt"
	"sort"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

// Loads is the byte half of the census: what every serialized resource
// (wire direction, injection adapter, ejection adapter) must move. It
// is all the analytic bound of §VI-B reads, so byte-only consumers (the
// analytic evaluator, evaluate.LoadState) stop here and skip the §IV
// flow and group counts Analyze adds on top.
type Loads struct {
	UpBytes   []int64 // per channel, ascending direction
	DownBytes []int64 // per channel, descending direction

	InjectBytes []int64 // per leaf, self-flows excluded
	EjectBytes  []int64 // per leaf
}

// Analysis is the result of Analyze: the byte loads plus per-channel
// flow counts and endpoint-group counts, and per-adapter degrees.
type Analysis struct {
	Topo *xgft.Topology
	Loads

	UpFlows    []int
	DownFlows  []int
	UpGroups   []int // distinct sources using the up channel
	DownGroups []int // distinct destinations using the down channel

	OutDegree []int // per leaf
	InDegree  []int
}

// ByteLoads computes the byte census of a routed pattern — the one
// place routed input is validated: routes must be aligned with p.Flows
// (as produced by core.BuildTable) and match their endpoints, every
// endpoint must be a leaf of t, and every ascent must fit the
// topology's height and port radices. Self-flows are skipped.
func ByteLoads(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route) (*Loads, error) {
	l := new(Loads)
	if err := l.refill(t, p, routes); err != nil {
		return nil, err
	}
	return l, nil
}

// refill replaces the loads by those of a routed pattern, validated as
// ByteLoads documents. It sizes them for t, reusing their arrays when
// they are large enough.
func (l *Loads) refill(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route) error {
	if len(routes) != len(p.Flows) {
		return fmt.Errorf("contention: %d routes for %d flows", len(routes), len(p.Flows))
	}
	n, c := t.Leaves(), t.TotalChannels()
	l.UpBytes, l.DownBytes = zeroed(l.UpBytes, c), zeroed(l.DownBytes, c)
	l.InjectBytes, l.EjectBytes = zeroed(l.InjectBytes, n), zeroed(l.EjectBytes, n)
	for i, f := range p.Flows {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return fmt.Errorf("contention: flow %d endpoints (%d,%d) out of range [0,%d)", i, f.Src, f.Dst, n)
		}
		if f.Src == f.Dst {
			continue
		}
		r := routes[i]
		if r.Src != f.Src || r.Dst != f.Dst {
			return fmt.Errorf("contention: route %d endpoints (%d,%d) do not match flow (%d,%d)", i, r.Src, r.Dst, f.Src, f.Dst)
		}
		if len(r.Up) > t.Height() {
			return fmt.Errorf("contention: route %d ascends %d levels in a tree of height %d", i, len(r.Up), t.Height())
		}
		l.InjectBytes[f.Src] += f.Bytes
		l.EjectBytes[f.Dst] += f.Bytes
		c := t.Climb(f.Src, f.Dst)
		for lv, port := range r.Up {
			if port < 0 || port >= t.W(lv) {
				return fmt.Errorf("contention: route %d up-port %d at level %d out of range [0,%d)", i, port, lv, t.W(lv))
			}
			up, down := c.Step(lv, port)
			l.UpBytes[up] += f.Bytes
			l.DownBytes[down] += f.Bytes
		}
	}
	return nil
}

// Analyze computes the full census of a routed pattern: ByteLoads (and
// its validation) plus the §IV flow and endpoint-group counts.
func Analyze(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route) (*Analysis, error) {
	l, err := ByteLoads(t, p, routes)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Topo: t, Loads: *l}
	a.UpFlows, a.UpGroups, a.OutDegree = countGroups(t, p, routes, true)
	a.DownFlows, a.DownGroups, a.InDegree = countGroups(t, p, routes, false)
	return a, nil
}

// countGroups counts, for one direction, the flows and the distinct
// endpoint groups (sources going up, destinations coming down) on every
// channel, plus each leaf's flow degree. Flows are visited bucketed by
// that endpoint, so a channel has already counted the current group
// exactly when the last endpoint stamped on it is the current one — no
// (channel, endpoint) set is ever materialized. Input was validated by
// ByteLoads.
func countGroups(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route, up bool) (flows, groups, degree []int) {
	end := func(f pattern.Flow) int {
		if up {
			return f.Src
		}
		return f.Dst
	}
	// Counting sort of the flow indices by endpoint: degree doubles as
	// the bucket sizes.
	n := t.Leaves()
	degree = make([]int, n)
	routed := 0
	for _, f := range p.Flows {
		if f.Src != f.Dst {
			degree[end(f)]++
			routed++
		}
	}
	next := make([]int, n)
	for e, off := 0, 0; e < n; e++ {
		next[e] = off
		off += degree[e]
	}
	order := make([]int, routed)
	for i, f := range p.Flows {
		if f.Src != f.Dst {
			e := end(f)
			order[next[e]] = i
			next[e]++
		}
	}

	c := t.TotalChannels()
	flows, groups = make([]int, c), make([]int, c)
	stamp := make([]int, c) // last endpoint seen on the channel, plus one
	for _, i := range order {
		e := end(p.Flows[i])
		walk := t.Climb(e, e)
		for lv, port := range routes[i].Up {
			ch, _ := walk.Step(lv, port)
			flows[ch]++
			if stamp[ch] != e+1 {
				stamp[ch] = e + 1
				groups[ch]++
			}
		}
	}
	return flows, groups, degree
}

// MaxEndpointContention returns the paper's §IV endpoint contention:
// the largest number of messages produced by or destined to a single
// node.
func (a *Analysis) MaxEndpointContention() int {
	return maxOf(a.OutDegree, a.InDegree)
}

// MaxNetworkContention returns the largest endpoint-group count over
// all channels: contention a routing scheme is responsible for. A
// value of 1 means no two independently-serialized flows ever share a
// channel (the pattern is routed without blocking).
func (a *Analysis) MaxNetworkContention() int {
	return maxOf(a.UpGroups, a.DownGroups)
}

// MaxFlowsPerChannel returns the classic (endpoint-blind) congestion
// figure the paper argues against using alone.
func (a *Analysis) MaxFlowsPerChannel() int {
	return maxOf(a.UpFlows, a.DownFlows)
}

// CompletionBound returns the congestion lower bound on completion
// time in bytes: the largest byte total any single serialized
// resource (injection adapter, wire direction, ejection adapter)
// must move. Divide by link bandwidth for seconds.
func (l *Loads) CompletionBound() int64 {
	return maxOf(l.InjectBytes, l.EjectBytes, l.UpBytes, l.DownBytes)
}

// CrossbarBound returns the completion bound of the same pattern on
// the ideal single-stage crossbar: only injection and ejection
// serialize.
func (l *Loads) CrossbarBound() int64 {
	return maxOf(l.InjectBytes, l.EjectBytes)
}

// CrossbarBound is Loads.CrossbarBound from the pattern alone, for
// callers that hold no routes.
func CrossbarBound(p *pattern.Pattern) int64 {
	return maxOf(p.BytesOut(), p.BytesIn())
}

// zeroed returns n zeros in s's array, or in a new one when s is too
// short.
func zeroed(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// maxOf returns the largest element of the given slices, 0 when there
// is none (loads and counts are non-negative).
func maxOf[T int | int64](vs ...[]T) T {
	var m T
	for _, s := range vs {
		for _, v := range s {
			m = max(m, v)
		}
	}
	return m
}

// GroupProfile returns the sorted multiset of group counts of the
// given direction over all channels — the paper's "number of
// patterns routed with contention level C" view. Channels carrying
// nothing are omitted.
func (a *Analysis) GroupProfile(up bool) []int {
	src := a.DownGroups
	if up {
		src = a.UpGroups
	}
	var out []int
	for _, g := range src {
		if g > 0 {
			out = append(out, g)
		}
	}
	sort.Ints(out)
	return out
}
