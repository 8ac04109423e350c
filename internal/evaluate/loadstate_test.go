package evaluate

import (
	"testing"

	"repro/internal/contention"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// loadSeed domain-separates this file's keyed draws.
const loadSeed = 0x10ad5

// randomRoute builds a valid minimal route for (src, dst) with
// keyed-random up-port choices — every such route is legal, so delta
// sequences can move flows anywhere in the route space.
func randomRoute(tp *xgft.Topology, src, dst int, key uint64) xgft.Route {
	lvl := tp.NCALevel(src, dst)
	up := make([]int, lvl)
	for l := 0; l < lvl; l++ {
		up[l] = int(hashutil.Mix(loadSeed, key, uint64(src), uint64(dst), uint64(l)) % uint64(tp.W(l)))
	}
	return xgft.Route{Src: src, Dst: dst, Up: up}
}

// shadow is the reference state the property test diffs against: the
// plain (pattern, routes) pair rebuilt after every delta and scored
// from scratch.
type shadow struct {
	flows  []pattern.Flow
	routes []xgft.Route
}

func (s *shadow) pattern(n int) (*pattern.Pattern, []xgft.Route) {
	p := pattern.New(n)
	p.Flows = append([]pattern.Flow(nil), s.flows...)
	return p, s.routes
}

// checkAgainstFull compares the incremental state to a from-scratch
// contention.Analyze of the shadow — bit-identical bounds and
// slowdown, including against the analytic evaluator itself.
func checkAgainstFull(t *testing.T, tp *xgft.Topology, ls *LoadState, s *shadow, step int) {
	t.Helper()
	p, routes := s.pattern(tp.Leaves())
	an, err := contention.Analyze(tp, p, routes)
	if err != nil {
		t.Fatalf("step %d: full analyze: %v", step, err)
	}
	wantNet, wantXB := an.CompletionBound(), contention.CrossbarBound(p)
	if got := ls.NetworkBound(); got != wantNet {
		t.Fatalf("step %d: NetworkBound = %d, want %d", step, got, wantNet)
	}
	if got := ls.CrossbarBound(); got != wantXB {
		t.Fatalf("step %d: CrossbarBound = %d, want %d", step, got, wantXB)
	}
	res, err := NewAnalytic(nil).ScoreRoutes(tp, p, routes)
	if err != nil {
		t.Fatalf("step %d: analytic: %v", step, err)
	}
	if got := ls.Slowdown(); got != res.Slowdown {
		t.Fatalf("step %d: Slowdown = %v, want %v (bit-identical)", step, got, res.Slowdown)
	}
}

// TestLoadStateDifferential is the tentpole's correctness contract: a
// keyed-random sequence of mixed route and pattern deltas must leave
// the incremental state bit-identical to a full recompute after every
// single step. The sequence is long enough to overflow the lazy
// max-heaps and force in-place compaction.
func TestLoadStateDifferential(t *testing.T) {
	tp := mustTree(t, 8, 8, 4)
	n := tp.Leaves()

	sh := &shadow{}
	for i := 0; i < 120; i++ {
		src := int(hashutil.Mix(loadSeed, 1, uint64(i)) % uint64(n))
		dst := int(hashutil.Mix(loadSeed, 2, uint64(i)) % uint64(n))
		bytes := int64(hashutil.Mix(loadSeed, 3, uint64(i))%65536) + 1
		if i%17 == 0 {
			dst = src // a few self-flows: carried but inert
		}
		sh.flows = append(sh.flows, pattern.Flow{Src: src, Dst: dst, Bytes: bytes})
		sh.routes = append(sh.routes, randomRoute(tp, src, dst, uint64(i)))
	}
	p, routes := sh.pattern(n)
	ls, err := NewLoadState(tp, p, routes)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFull(t, tp, ls, sh, -1)

	added := 0
	for step := 0; step < 400; step++ {
		k := hashutil.Mix(loadSeed, 4, uint64(step))
		switch k % 3 {
		case 0: // move a keyed subset of flows onto new routes
			count := int(k%7) + 1
			var fl []pattern.Flow
			var oldR, newR []xgft.Route
			for j := 0; j < count; j++ {
				i := int(hashutil.Mix(loadSeed, 5, uint64(step), uint64(j)) % uint64(len(sh.flows)))
				fl = append(fl, sh.flows[i])
				oldR = append(oldR, sh.routes[i])
				nr := randomRoute(tp, sh.flows[i].Src, sh.flows[i].Dst, hashutil.Mix(uint64(step), uint64(j)))
				newR = append(newR, nr)
				sh.routes[i] = nr
			}
			if err := ls.ApplyRouteDelta(fl, oldR, newR); err != nil {
				t.Fatalf("step %d: route delta: %v", step, err)
			}
		case 1: // add keyed-random flows
			count := int(k%5) + 1
			var add []RoutedFlow
			for j := 0; j < count; j++ {
				src := int(hashutil.Mix(loadSeed, 6, uint64(step), uint64(j)) % uint64(n))
				dst := int(hashutil.Mix(loadSeed, 7, uint64(step), uint64(j)) % uint64(n))
				bytes := int64(hashutil.Mix(loadSeed, 8, uint64(step), uint64(j))%65536) + 1
				r := randomRoute(tp, src, dst, hashutil.Mix(uint64(step), uint64(j), 9))
				add = append(add, RoutedFlow{Route: r, Bytes: bytes})
				sh.flows = append(sh.flows, pattern.Flow{Src: src, Dst: dst, Bytes: bytes})
				sh.routes = append(sh.routes, r)
				added++
			}
			if err := ls.ApplyPatternDelta(add, nil); err != nil {
				t.Fatalf("step %d: pattern add: %v", step, err)
			}
		case 2: // remove the most recently added flows
			if added == 0 {
				continue
			}
			count := int(k%uint64(added)) + 1
			var rem []RoutedFlow
			for j := 0; j < count; j++ {
				last := len(sh.flows) - 1
				rem = append(rem, RoutedFlow{Route: sh.routes[last], Bytes: sh.flows[last].Bytes})
				sh.flows = sh.flows[:last]
				sh.routes = sh.routes[:last]
				added--
			}
			if err := ls.ApplyPatternDelta(nil, rem); err != nil {
				t.Fatalf("step %d: pattern remove: %v", step, err)
			}
		}
		checkAgainstFull(t, tp, ls, sh, step)
	}
	if ls.touched == 0 {
		t.Fatal("delta sequence touched no links")
	}
}

// TestLoadStateRevert pins the score-and-revert contract both callers
// rely on: applying a delta and then its inverse restores every bound
// and the slowdown exactly.
func TestLoadStateRevert(t *testing.T) {
	tp := mustTree(t, 8, 8, 4)
	n := tp.Leaves()
	sh := &shadow{}
	for i := 0; i < 50; i++ {
		src := int(hashutil.Mix(loadSeed, 11, uint64(i)) % uint64(n))
		dst := int(hashutil.Mix(loadSeed, 12, uint64(i)) % uint64(n))
		sh.flows = append(sh.flows, pattern.Flow{Src: src, Dst: dst, Bytes: int64(i)*100 + 1})
		sh.routes = append(sh.routes, randomRoute(tp, src, dst, uint64(i)+500))
	}
	p, routes := sh.pattern(n)
	ls, err := NewLoadState(tp, p, routes)
	if err != nil {
		t.Fatal(err)
	}
	net, xb, slow := ls.NetworkBound(), ls.CrossbarBound(), ls.Slowdown()

	// Route delta and inverse.
	var oldR, newR []xgft.Route
	for i := range sh.flows {
		oldR = append(oldR, sh.routes[i])
		newR = append(newR, randomRoute(tp, sh.flows[i].Src, sh.flows[i].Dst, uint64(i)+900))
	}
	if err := ls.ApplyRouteDelta(sh.flows, oldR, newR); err != nil {
		t.Fatal(err)
	}
	if err := ls.ApplyRouteDelta(sh.flows, newR, oldR); err != nil {
		t.Fatal(err)
	}
	if ls.NetworkBound() != net || ls.CrossbarBound() != xb || ls.Slowdown() != slow {
		t.Fatalf("route delta + inverse drifted: net %d->%d xb %d->%d slow %v->%v",
			net, ls.NetworkBound(), xb, ls.CrossbarBound(), slow, ls.Slowdown())
	}

	// Pattern delta and inverse.
	add := []RoutedFlow{
		{Route: randomRoute(tp, 3, 40, 77), Bytes: 1 << 20},
		{Route: randomRoute(tp, 9, 9, 78), Bytes: 5}, // self-flow: inert
	}
	if err := ls.ApplyPatternDelta(add, nil); err != nil {
		t.Fatal(err)
	}
	if err := ls.ApplyPatternDelta(nil, add); err != nil {
		t.Fatal(err)
	}
	if ls.NetworkBound() != net || ls.CrossbarBound() != xb || ls.Slowdown() != slow {
		t.Fatalf("pattern delta + inverse drifted: net %d->%d xb %d->%d slow %v->%v",
			net, ls.NetworkBound(), xb, ls.CrossbarBound(), slow, ls.Slowdown())
	}
}

// TestLoadStateValidation pins the error paths: misaligned or
// mismatched deltas are refused with the state unmodified.
func TestLoadStateValidation(t *testing.T) {
	tp := mustTree(t, 4, 4, 2)
	p := pattern.New(tp.Leaves())
	p.Add(0, 5, 100)
	routes := []xgft.Route{randomRoute(tp, 0, 5, 1)}
	if _, err := NewLoadState(tp, p, nil); err == nil {
		t.Error("NewLoadState accepted misaligned routes")
	}
	wrong := pattern.New(tp.Leaves())
	wrong.Add(1, 5, 100)
	if _, err := NewLoadState(tp, wrong, routes); err == nil {
		t.Error("NewLoadState accepted mismatched endpoints")
	}
	ls, err := NewLoadState(tp, p, routes)
	if err != nil {
		t.Fatal(err)
	}
	slow := ls.Slowdown()
	if err := ls.ApplyRouteDelta(p.Flows, routes, nil); err == nil {
		t.Error("ApplyRouteDelta accepted misaligned routes")
	}
	if err := ls.ApplyRouteDelta(p.Flows, routes, []xgft.Route{randomRoute(tp, 1, 5, 2)}); err == nil {
		t.Error("ApplyRouteDelta accepted mismatched endpoints")
	}
	bad := []RoutedFlow{{Route: xgft.Route{Src: -1, Dst: 2}, Bytes: 1}}
	if err := ls.ApplyPatternDelta(bad, nil); err == nil {
		t.Error("ApplyPatternDelta accepted out-of-range add")
	}
	if err := ls.ApplyPatternDelta(nil, bad); err == nil {
		t.Error("ApplyPatternDelta accepted out-of-range remove")
	}
	if ls.Slowdown() != slow {
		t.Error("rejected deltas modified the state")
	}
}

// TestLoadStateEmpty pins the degenerate case: no traffic scores 1,
// exactly like the analytic evaluator.
func TestLoadStateEmpty(t *testing.T) {
	tp := mustTree(t, 4, 4, 2)
	ls, err := NewLoadState(tp, pattern.New(tp.Leaves()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Slowdown() != 1 {
		t.Errorf("empty Slowdown = %v, want 1", ls.Slowdown())
	}
	if ls.NetworkBound() != 0 || ls.CrossbarBound() != 0 {
		t.Errorf("empty bounds = %d/%d, want 0/0", ls.NetworkBound(), ls.CrossbarBound())
	}
}

// TestLoadStateSteadyStateAllocs pins the hot path: once the tracker
// heaps have warmed past their first compactions, a delta apply and
// its revert allocate nothing.
func TestLoadStateSteadyStateAllocs(t *testing.T) {
	tp := mustTree(t, 8, 8, 4)
	n := tp.Leaves()
	sh := &shadow{}
	for i := 0; i < 100; i++ {
		src := int(hashutil.Mix(loadSeed, 21, uint64(i)) % uint64(n))
		dst := int(hashutil.Mix(loadSeed, 22, uint64(i)) % uint64(n))
		sh.flows = append(sh.flows, pattern.Flow{Src: src, Dst: dst, Bytes: int64(i)*31 + 7})
		sh.routes = append(sh.routes, randomRoute(tp, src, dst, uint64(i)))
	}
	p, routes := sh.pattern(n)
	ls, err := NewLoadState(tp, p, routes)
	if err != nil {
		t.Fatal(err)
	}
	alt := make([]xgft.Route, len(sh.routes))
	for i := range alt {
		alt[i] = randomRoute(tp, sh.flows[i].Src, sh.flows[i].Dst, uint64(i)+4000)
	}
	add := []RoutedFlow{
		{Route: randomRoute(tp, 1, 60, 5001), Bytes: 4096},
		{Route: randomRoute(tp, 2, 61, 5002), Bytes: 8192},
	}
	roundTrip := func() {
		if err := ls.ApplyRouteDelta(sh.flows, sh.routes, alt); err != nil {
			t.Fatal(err)
		}
		if err := ls.ApplyPatternDelta(add, nil); err != nil {
			t.Fatal(err)
		}
		_ = ls.Slowdown()
		if err := ls.ApplyPatternDelta(nil, add); err != nil {
			t.Fatal(err)
		}
		if err := ls.ApplyRouteDelta(sh.flows, alt, sh.routes); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // warm the heaps through their compaction cycle
		roundTrip()
	}
	if avg := testing.AllocsPerRun(100, roundTrip); avg != 0 {
		t.Errorf("steady-state delta round trip allocates %v times per run, want 0", avg)
	}
}
