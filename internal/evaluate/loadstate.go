package evaluate

import (
	"fmt"
	"time"

	"repro/internal/contention"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// LoadState is the incremental core of the analytic evaluator: the
// per-resource byte loads of one (topology, pattern, routes) triple,
// materialized once and then kept current under deltas. The analytic
// slowdown is max(network resources)/max(crossbar resources) over
// exact int64 sums, so applying a delta and its inverse — or any
// reordering of the same deltas — reproduces the full recompute
// bit-identically; the differential property test in
// loadstate_test.go enforces exactly that against contention.Analyze.
//
// Two delta shapes are supported:
//
//   - ApplyRouteDelta: the same flows move to different routes (a
//     candidate table diffed against the serving one). Endpoint loads
//     are untouched, so only channel entries of the touched routes
//     update.
//   - ApplyPatternDelta: flows appear or disappear (sched scoring a
//     candidate placement against the background traffic). Endpoint
//     and channel loads both update.
//
// Both run in O(touched links): each resource update is two array
// writes plus multiset bookkeeping in the lazy max-heaps, never a
// rescan of the untouched loads. A LoadState is not safe for
// concurrent use; build one per scoring loop.
type LoadState struct {
	topo *xgft.Topology

	inject []int64 // per leaf, bytes sent (self-flows excluded)
	eject  []int64 // per leaf, bytes received
	up     []int64 // per channel, ascending direction
	down   []int64 // per channel, descending direction

	// network tracks the max over all four resource classes (the
	// completion bound); crossbar tracks inject/eject only (the ideal
	// crossbar bound). Endpoint updates feed both.
	network  maxTracker
	crossbar maxTracker

	touched uint64 // cumulative per-link (resource) updates

	deltaNS *obs.Histogram
	links   *obs.Counter
}

// Instrument metric names, vetted as in-package constants for the
// obskeys lint.
const (
	metricDeltaNS      = "evaluate_delta_ns"
	metricLinksTouched = "loadstate_links_touched"
)

// DeltaMetricNames lists the instruments an Instrument()ed LoadState
// records into, for the docs-drift check and the fabrictop inventory.
func DeltaMetricNames() []string { return []string{metricDeltaNS, metricLinksTouched} }

// RoutedFlow pairs a flow's byte count with the route carrying it;
// the endpoints are the route's. It is the unit of ApplyPatternDelta.
type RoutedFlow struct {
	Route xgft.Route
	Bytes int64
}

// NewLoadState materializes the per-resource loads of a routed
// pattern from the byte census (contention.ByteLoads, which validates
// the input: routes aligned with p.Flows and matching their endpoints,
// endpoints inside the tree; self-flows skipped).
func NewLoadState(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route) (*LoadState, error) {
	l, err := contention.ByteLoads(t, p, routes)
	if err != nil {
		return nil, err
	}
	ls := &LoadState{
		topo:   t,
		inject: l.InjectBytes,
		eject:  l.EjectBytes,
		up:     l.UpBytes,
		down:   l.DownBytes,
	}
	ls.network.init(ls.inject, ls.eject, ls.up, ls.down)
	ls.crossbar.init(ls.inject, ls.eject)
	return ls, nil
}

// Instrument attaches the evaluate_delta_ns histogram (latency of one
// delta application) and loadstate_links_touched counter (resources
// updated by deltas) from the registry. Optional; an uninstrumented
// LoadState records nothing.
func (ls *LoadState) Instrument(reg *obs.Registry) {
	ls.deltaNS = reg.Histogram(metricDeltaNS, "latency of one incremental delta application")
	ls.links = reg.Counter(metricLinksTouched, "per-link load entries updated by incremental deltas", 1)
}

// Slowdown returns the analytic slowdown of the tracked state:
// completion bound over crossbar bound, 1 when the pattern carries no
// crossbar traffic — bit-identical to the analytic evaluator's
// ScoreRoutes on the same (pattern, routes).
func (ls *LoadState) Slowdown() float64 {
	return contention.Ratio(ls.network.max(), ls.crossbar.max())
}

// NetworkBound returns the congestion completion bound in bytes (the
// largest load on any serialized resource).
func (ls *LoadState) NetworkBound() int64 { return ls.network.max() }

// CrossbarBound returns the ideal-crossbar bound in bytes (the
// largest injection or ejection load).
func (ls *LoadState) CrossbarBound() int64 { return ls.crossbar.max() }

// ApplyRouteDelta moves the given flows from oldRoutes to newRoutes.
// Both route slices must be aligned with flows and match their
// endpoints; oldRoutes must be the routes currently applied (the
// caller's contract — LoadState cannot verify occupancy). Endpoint
// loads are untouched, so only the channels of changed routes update.
// Self-flows are skipped. On error the state is unmodified. Applying
// the reverse delta (newRoutes, oldRoutes swapped) restores the state
// exactly.
//
//repro:hotpath
func (ls *LoadState) ApplyRouteDelta(flows []pattern.Flow, oldRoutes, newRoutes []xgft.Route) error {
	if len(oldRoutes) != len(flows) || len(newRoutes) != len(flows) {
		return fmt.Errorf("evaluate: route delta with %d flows, %d old routes, %d new routes", len(flows), len(oldRoutes), len(newRoutes))
	}
	for i := 0; i < len(flows); i++ {
		f := flows[i]
		if f.Src == f.Dst {
			continue
		}
		if oldRoutes[i].Src != f.Src || oldRoutes[i].Dst != f.Dst {
			return fmt.Errorf("evaluate: old route %d endpoints (%d,%d) do not match flow (%d,%d)", i, oldRoutes[i].Src, oldRoutes[i].Dst, f.Src, f.Dst)
		}
		if newRoutes[i].Src != f.Src || newRoutes[i].Dst != f.Dst {
			return fmt.Errorf("evaluate: new route %d endpoints (%d,%d) do not match flow (%d,%d)", i, newRoutes[i].Src, newRoutes[i].Dst, f.Src, f.Dst)
		}
	}
	start := time.Now() //lint:allow nondeterminism delta latency is observational (histogram only)
	before := ls.touched
	for i := 0; i < len(flows); i++ {
		f := flows[i]
		if f.Src == f.Dst || sameAscent(oldRoutes[i].Up, newRoutes[i].Up) {
			continue
		}
		ls.walkRoute(oldRoutes[i], -f.Bytes)
		ls.walkRoute(newRoutes[i], f.Bytes)
	}
	ls.record(before, start)
	return nil
}

// ApplyPatternDelta adds then removes routed flows. Removed flows
// must be currently applied with exactly the given routes and byte
// counts (the caller's contract). Self-flows are skipped. On error
// the state is unmodified. ApplyPatternDelta(nil, add) reverts
// ApplyPatternDelta(add, nil) exactly.
//
//repro:hotpath
func (ls *LoadState) ApplyPatternDelta(add, remove []RoutedFlow) error {
	n := len(ls.inject)
	for i := 0; i < len(add); i++ {
		r := add[i].Route
		if r.Src < 0 || r.Src >= n || r.Dst < 0 || r.Dst >= n {
			return fmt.Errorf("evaluate: added flow %d endpoints (%d,%d) out of range [0,%d)", i, r.Src, r.Dst, n)
		}
	}
	for i := 0; i < len(remove); i++ {
		r := remove[i].Route
		if r.Src < 0 || r.Src >= n || r.Dst < 0 || r.Dst >= n {
			return fmt.Errorf("evaluate: removed flow %d endpoints (%d,%d) out of range [0,%d)", i, r.Src, r.Dst, n)
		}
	}
	start := time.Now() //lint:allow nondeterminism delta latency is observational (histogram only)
	before := ls.touched
	for i := 0; i < len(add); i++ {
		ls.applyFlow(add[i].Route, add[i].Bytes)
	}
	for i := 0; i < len(remove); i++ {
		ls.applyFlow(remove[i].Route, -remove[i].Bytes)
	}
	ls.record(before, start)
	return nil
}

// record observes one delta application on the attached instruments.
//
//repro:hotpath
func (ls *LoadState) record(before uint64, start time.Time) {
	if ls.links != nil {
		ls.links.Add(ls.touched - before)
	}
	if ls.deltaNS != nil {
		ls.deltaNS.Observe(time.Since(start).Nanoseconds()) //lint:allow nondeterminism delta latency is observational (histogram only)
	}
}

// sameAscent reports whether two ascents name the same route (equal
// up-port sequences; the descent is destination-determined).
//
//repro:hotpath
func sameAscent(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applyFlow adds one routed flow's contribution (negative bytes
// remove it): endpoint loads feed both bounds, channel loads feed the
// network bound only. Self-flows carry nothing.
//
//repro:hotpath
func (ls *LoadState) applyFlow(r xgft.Route, bytes int64) {
	if r.Src == r.Dst {
		return
	}
	old := ls.inject[r.Src]
	ls.inject[r.Src] = old + bytes
	ls.network.update(old, old+bytes)
	ls.crossbar.update(old, old+bytes)
	old = ls.eject[r.Dst]
	ls.eject[r.Dst] = old + bytes
	ls.network.update(old, old+bytes)
	ls.crossbar.update(old, old+bytes)
	ls.touched += 2
	ls.walkRoute(r, bytes)
}

// walkRoute adds bytes to every channel the route traverses: the
// ascent climbs from the source, the descent from the destination,
// through the same ports.
//
//repro:hotpath
func (ls *LoadState) walkRoute(r xgft.Route, bytes int64) {
	c := ls.topo.Climb(r.Src, r.Dst)
	for l, p := range r.Up {
		up, down := c.Step(l, p)
		old := ls.up[up]
		ls.up[up] = old + bytes
		ls.network.update(old, old+bytes)
		old = ls.down[down]
		ls.down[down] = old + bytes
		ls.network.update(old, old+bytes)
	}
	ls.touched += uint64(2 * len(r.Up))
}

// maxTracker maintains the maximum of a multiset of int64 loads under
// point updates: a counts map for membership plus a lazy max-heap of
// candidate values. update pushes the new value and decrements the
// old; max pops stale tops (values no longer present) on demand. When
// the heap outgrows its limit it is rebuilt in place from the source
// arrays — ground truth, in deterministic order — so steady-state
// operation allocates nothing once the heap and map have warmed up.
type maxTracker struct {
	counts map[int64]int
	heap   []int64
	src    [4][]int64
	nsrc   int
	limit  int
}

// init seeds the tracker from its source arrays; the tracker aliases
// them for rebuilds, so callers must keep updating them through
// update.
func (tk *maxTracker) init(src ...[]int64) {
	tk.nsrc = copy(tk.src[:], src)
	total := 0
	for i := 0; i < tk.nsrc; i++ {
		total += len(tk.src[i])
	}
	tk.counts = make(map[int64]int, total)
	tk.limit = 2*total + 64
	tk.heap = make([]int64, 0, tk.limit+1)
	for i := 0; i < tk.nsrc; i++ {
		for _, v := range tk.src[i] {
			tk.counts[v]++
			tk.heap = append(tk.heap, v)
		}
	}
	tk.heapify()
}

// update moves one resource's load from old to new.
//
//repro:hotpath
func (tk *maxTracker) update(old, new int64) {
	if old == new {
		return
	}
	c := tk.counts[old] - 1
	if c == 0 {
		delete(tk.counts, old)
	} else {
		tk.counts[old] = c
	}
	tk.counts[new]++
	tk.push(new)
	if len(tk.heap) > tk.limit {
		tk.rebuild()
	}
}

// max returns the largest value currently in the multiset, discarding
// stale heap tops as it goes. An empty multiset reads 0 (loads are
// non-negative).
//
//repro:hotpath
func (tk *maxTracker) max() int64 {
	for len(tk.heap) > 0 {
		top := tk.heap[0]
		if tk.counts[top] > 0 {
			return top
		}
		tk.pop()
	}
	return 0
}

//repro:hotpath
func (tk *maxTracker) push(v int64) {
	tk.heap = append(tk.heap, v)
	i := len(tk.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if tk.heap[parent] >= tk.heap[i] {
			break
		}
		tk.heap[parent], tk.heap[i] = tk.heap[i], tk.heap[parent]
		i = parent
	}
}

//repro:hotpath
func (tk *maxTracker) pop() {
	last := len(tk.heap) - 1
	tk.heap[0] = tk.heap[last]
	tk.heap = tk.heap[:last]
	tk.siftDown(0)
}

//repro:hotpath
func (tk *maxTracker) siftDown(i int) {
	n := len(tk.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && tk.heap[l] > tk.heap[largest] {
			largest = l
		}
		if r < n && tk.heap[r] > tk.heap[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		tk.heap[i], tk.heap[largest] = tk.heap[largest], tk.heap[i]
		i = largest
	}
}

// rebuild resets the heap to exactly the current multiset by
// rescanning the source arrays in deterministic order, dropping every
// stale entry; the counts map is already exact and stays as is. In
// place: the heap shrinks back to the resource count without
// releasing capacity, so a warmed tracker never reallocates.
//
//repro:hotpath
func (tk *maxTracker) rebuild() {
	tk.heap = tk.heap[:0]
	for i := 0; i < tk.nsrc; i++ {
		arr := tk.src[i]
		for j := 0; j < len(arr); j++ {
			tk.heap = append(tk.heap, arr[j])
		}
	}
	tk.heapify()
}

//repro:hotpath
func (tk *maxTracker) heapify() {
	for i := len(tk.heap)/2 - 1; i >= 0; i-- {
		tk.siftDown(i)
	}
}
