package fabric

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/contention"
	"repro/internal/contention/oracle"
	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

func testFabric(t *testing.T, algo func(*xgft.Topology) core.Algorithm) *Fabric {
	t.Helper()
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 8})
	f, err := New(Config{Topo: tp, Algo: algo(tp)})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// unpackedRoutes decodes a packed batch for the route validators: the
// zero route in every unresolved slot.
func unpackedRoutes(pairs [][2]int, words []uint64) []xgft.Route {
	out := make([]xgft.Route, len(pairs))
	for i, p := range pairs {
		out[i], _ = unpackedRoute(p[0], p[1], words[i])
	}
	return out
}

// rides reports whether the route crosses the wire, in either
// direction, read off the oracle's own lowering.
func rides(tp *xgft.Topology, r xgft.Route, wire int) bool {
	for _, c := range oracle.Lower(tp, r) {
		if c.Wire == wire {
			return true
		}
	}
	return false
}

func TestNewResolvesAllPairs(t *testing.T) {
	f := testFabric(t, core.NewDModK)
	tp := f.Topology()
	st := f.Stats()
	if st.Seq != 0 || st.Algo != "d-mod-k" {
		t.Fatalf("initial stats %+v", st)
	}
	if st.Routes != tp.Leaves()*(tp.Leaves()-1) {
		t.Fatalf("initial generation resolves %d routes, want %d", st.Routes, tp.Leaves()*(tp.Leaves()-1))
	}
	algo := core.NewDModK(tp)
	n := tp.Leaves()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			r, ok := f.Resolve(s, d)
			if !ok {
				t.Fatalf("healthy fabric failed to resolve (%d,%d)", s, d)
			}
			if s == d {
				if len(r.Up) != 0 {
					t.Fatalf("self pair resolved to %v", r)
				}
				continue
			}
			want := algo.Route(s, d)
			if len(r.Up) != len(want.Up) {
				t.Fatalf("resolve (%d,%d) = %v, want %v", s, d, r, want)
			}
			for i := range r.Up {
				if r.Up[i] != want.Up[i] {
					t.Fatalf("resolve (%d,%d) = %v, want %v", s, d, r, want)
				}
			}
		}
	}
	if _, ok := f.Resolve(-1, 0); ok {
		t.Fatal("out-of-range source resolved")
	}
	if _, ok := f.Resolve(0, n); ok {
		t.Fatal("out-of-range destination resolved")
	}
}

func TestConfigValidation(t *testing.T) {
	tp := xgft.MustNew(2, []int{4, 4}, []int{1, 4})
	if _, err := New(Config{Algo: core.NewDModK(tp)}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := New(Config{Topo: tp}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
}

func TestFailLinkSwapsGeneration(t *testing.T) {
	f := testFabric(t, func(tp *xgft.Topology) core.Algorithm { return core.NewRandom(tp, 3) })
	tp := f.Topology()
	st, err := f.FailLink(1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 1 || st.Patched == 0 || st.Unreachable != 0 || st.FailedWires != 1 {
		t.Fatalf("post-failure stats %+v", st)
	}
	gen := f.Generation()
	failed := tp.UpChannelID(1, 0, 2)
	for _, r := range gen.Routes() {
		if rides(tp, r, failed) {
			t.Fatalf("route %v still traverses the failed wire", r)
		}
		if !r.VerifyConnects(tp) {
			t.Fatalf("patched route %v does not connect", r)
		}
	}
	if err := contention.VerifyDeadlockFree(tp, gen.Routes()); err != nil {
		t.Fatalf("patched generation not deadlock-free: %v", err)
	}
	// Double failure of the same link is refused without a swap.
	if _, err := f.FailLink(1, 0, 2); err == nil {
		t.Fatal("re-failing a dead link succeeded")
	}
	if f.Stats().Seq != 1 {
		t.Fatalf("refused failure still swapped: seq %d", f.Stats().Seq)
	}
}

func TestFailSwitchAndUnreachable(t *testing.T) {
	f := testFabric(t, core.NewDModK)
	tp := f.Topology()
	// Failing leaf switch 0 severs its 8 leaves entirely: every pair
	// crossing the switch (8*56 in each direction) plus the 8*7
	// intra-switch pairs whose only NCA it is.
	st, err := f.FailSwitch(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantSevered := 2*8*(tp.Leaves()-8) + 8*7
	if st.Unreachable != wantSevered {
		t.Fatalf("severed %d pairs, want %d", st.Unreachable, wantSevered)
	}
	if st.FailedSwitches != 1 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok := f.Resolve(0, 8); ok {
		t.Fatal("severed cross-switch pair still resolves")
	}
	if _, ok := f.Resolve(0, 1); ok {
		t.Fatal("intra-switch pair under the failed switch still resolves")
	}
	if r, ok := f.Resolve(8, 9); !ok || !f.Generation().View().RouteOK(r) {
		t.Fatalf("unaffected pair broken: ok=%v r=%v", ok, r)
	}
}

func TestHealRestores(t *testing.T) {
	cache := core.NewTableCache(8)
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 8})
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.FailLink(1, 3, 3); err != nil {
		t.Fatal(err)
	}
	st, err := f.Heal()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 2 || st.FailedWires != 0 || st.Unreachable != 0 {
		t.Fatalf("healed stats %+v", st)
	}
	if !st.CacheHit {
		t.Fatalf("heal of a memoizable scheme missed the cache: %+v", st)
	}
	algo := core.NewDModK(tp)
	r, ok := f.Resolve(0, 60)
	want := algo.Route(0, 60)
	if !ok || r.Up[1] != want.Up[1] {
		t.Fatalf("healed fabric resolves %v, want %v", r, want)
	}
}

// TestConcurrentResolveDuringSwap is the generation hot-swap race
// test: resolver goroutines hammer packed batch resolves while the
// main goroutine fails a link and heals, repeatedly. Every resolved
// route must be well-formed and connect (no torn reads), and once
// FailLink returns, every resolve must avoid the failed link. Run
// with -race.
func TestConcurrentResolveDuringSwap(t *testing.T) {
	f := testFabric(t, func(tp *xgft.Topology) core.Algorithm { return core.NewRandomNCAUp(tp, 1) })
	tp := f.Topology()
	n := tp.Leaves()
	failedWire := tp.UpChannelID(1, 0, 5)

	var stop atomic.Bool
	var resolves atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := uint64(g + 1)
			pairs := make([][2]int, 64)
			words := make([]uint64, len(pairs))
			for !stop.Load() {
				// A consistent snapshot: the whole batch reads one
				// generation even if a swap lands mid-call.
				gen := f.Generation()
				for i := range pairs {
					h = hashutil.Splitmix64(h)
					s := int(h % uint64(n))
					d := int(h >> 32 % uint64(n))
					pairs[i] = [2]int{s, d}
				}
				gen.ResolveBatchPacked(pairs, words)
				view := gen.View()
				out := unpackedRoutes(pairs, words)
				for i, r := range out {
					if pairs[i][0] == pairs[i][1] {
						continue
					}
					if err := r.Validate(tp); err != nil {
						fail(err)
						return
					}
					if !r.VerifyConnects(tp) {
						fail(errItem{s: "torn route", r: r})
						return
					}
					if !view.RouteOK(r) {
						fail(errItem{s: "route violates its own generation's view", r: r})
						return
					}
				}
				resolves.Add(int64(len(out)))
			}
		}(g)
	}

	// Wait until every resolver has completed at least one batch, so
	// the swaps below genuinely race with live traffic.
	for resolves.Load() < 8*64 && len(errs) == 0 {
		runtime.Gosched()
	}

	for round := 0; round < 3; round++ {
		st, err := f.FailLink(1, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if st.Patched == 0 {
			t.Fatalf("round %d: failure patched nothing: %+v", round, st)
		}
		// FailLink has returned: every new resolve must avoid the
		// failed wire.
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				r, ok := f.Resolve(s, d)
				if s == d {
					continue
				}
				if !ok {
					t.Fatalf("pair (%d,%d) unreachable after single link failure", s, d)
				}
				if rides(tp, r, failedWire) {
					t.Fatalf("post-swap resolve (%d,%d) = %v still uses failed wire", s, d, r)
				}
			}
		}
		if _, err := f.Heal(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if resolves.Load() == 0 {
		t.Fatal("resolver goroutines made no progress")
	}
}

type errItem struct {
	s string
	r xgft.Route
}

func (e errItem) Error() string { return e.s }

// TestCertifyReadsThePackedRows pins what the publish gate checks: the
// words about to be served. A published generation's materialized route
// set certifies from scratch, and one malformed changed word refuses the
// whole generation with the gate's text; the next valid FailLink
// publishes.
func TestCertifyReadsThePackedRows(t *testing.T) {
	f := testFabric(t, core.NewDModK)
	if _, err := f.FailLink(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	gen := f.Generation()
	if err := contention.VerifyDeadlockFree(f.topo, gen.Routes()); err != nil {
		t.Fatal(err)
	}
	if gen.stats.VerifyTime <= 0 || gen.stats.VerifyTime > gen.stats.BuildTime {
		t.Errorf("VerifyTime %v outside BuildTime %v", gen.stats.VerifyTime, gen.stats.BuildTime)
	}

	n := f.topo.Leaves()
	bad := &Generation{routes: gen.routes}
	bad.excAt = make([]int32, n+1)
	bad.excAt[n] = 1
	bad.exc = []exception{{dst: 0, word: 2<<levelShift | 200<<8}} // (n-1, 0): top-level port 200 of 8
	_, err := f.certifyLocked(&table{routes: gen.routes, checked: true}, bad, [][2]int{{n - 1, 0}})
	const want = "contention: route 63->0 up-port 200 at level 1 out of range [0,8)"
	if err == nil || err.Error() != want {
		t.Errorf("certify(malformed last row) = %v, want %q", err, want)
	}
	if _, err := f.FailLink(1, 5, 1); err != nil {
		t.Fatalf("FailLink after a refused generation: %v", err)
	}
	if err := contention.VerifyDeadlockFree(f.topo, f.Generation().Routes()); err != nil {
		t.Fatal(err)
	}
}

// steeredEvaluator makes an Optimize pass pick one candidate: a pass
// scores the serving generation, then its four candidates in
// candidates' order (d-mod-k, r-NCA-u, r-NCA-d, Colored), and the
// candidate at index win scores best.
type steeredEvaluator struct {
	win, calls int
}

func (*steeredEvaluator) Name() string { return "steered" }

func (e *steeredEvaluator) Score(*xgft.Topology, core.Algorithm, []*pattern.Pattern) (evaluate.Result, error) {
	return evaluate.Result{}, fmt.Errorf("steered: Score is not used by Optimize")
}

func (e *steeredEvaluator) ScoreRoutes(*xgft.Topology, *pattern.Pattern, []xgft.Route) (evaluate.Result, error) {
	slot := e.calls % 5
	e.calls++
	score := 9.0
	switch {
	case slot == 0:
		score = 10 // the serving generation
	case slot-1 == e.win:
		score = 1
	}
	return evaluate.Result{Slowdown: score}, nil
}

// TestPublishedUnionIsDeadlockFree: the gate keeps no certificate, yet
// the union of every generation a fabric publishes — the table set with
// packets in flight across each swap — is deadlock-free. One fabric per
// configured scheme runs initial, FailLink, FailSwitch, an optimize swap
// to Colored, an optimize swap to r-NCA-u, Heal and FailLink again, and
// VerifyDeadlockFree certifies the union of every published route set.
func TestPublishedUnionIsDeadlockFree(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 8})
	for _, algo := range []core.Algorithm{core.NewDModK(tp), core.NewRandomNCAUp(tp, 3)} {
		ev := &steeredEvaluator{}
		f, err := New(Config{Topo: tp, Algo: algo, Telemetry: true, Evaluator: ev})
		if err != nil {
			t.Fatal(err)
		}
		union := f.Generation().Routes()
		optimizeTo := func(win int, want string) error {
			ev.win = win
			feedTelemetry(t, f, churnPattern(tp, 100, uint64(win)))
			res, err := f.Optimize(OptimizeConfig{Reset: true})
			if err == nil && (!res.Swapped || res.Best != want) {
				err = fmt.Errorf("swapped %v to %s, want a swap to %s", res.Swapped, res.Best, want)
			}
			return err
		}
		for i, step := range []struct {
			what string
			do   func() error
		}{
			{"fail-link", func() error { _, err := f.FailLink(1, 2, 3); return err }},
			{"fail-switch", func() error { _, err := f.FailSwitch(2, 5); return err }},
			{"optimize to colored", func() error { return optimizeTo(3, "colored") }},
			{"optimize to r-NCA-u", func() error { return optimizeTo(1, "r-NCA-u") }},
			{"heal", func() error { _, err := f.Heal(); return err }},
			{"fail-link again", func() error { _, err := f.FailLink(1, 2, 3); return err }},
		} {
			if err := step.do(); err != nil {
				t.Fatalf("%s: %s: %v", algo.Name(), step.what, err)
			}
			if seq := f.Stats().Seq; seq != uint64(i+1) {
				t.Fatalf("%s: %s left generation %d, want %d", algo.Name(), step.what, seq, i+1)
			}
			union = append(union, f.Generation().Routes()...)
		}
		if err := contention.VerifyDeadlockFree(tp, union); err != nil {
			t.Errorf("%s: the union of the published generations: %v", algo.Name(), err)
		}
	}
}

// TestRoutesAllocatesTwice holds Generation.Routes to its arena: the
// route slice and one backing array for every ascent, whatever the
// table size.
func TestRoutesAllocatesTwice(t *testing.T) {
	f := testFabric(t, func(tp *xgft.Topology) core.Algorithm { return core.NewRandomNCAUp(tp, 3) })
	if _, err := f.FailSwitch(1, 0); err != nil { // some pairs unreachable
		t.Fatal(err)
	}
	gen := f.Generation()
	if allocs := testing.AllocsPerRun(10, func() { gen.Routes() }); allocs > 2 {
		t.Errorf("Routes() allocates %v times, want 2", allocs)
	}
	routes := gen.Routes()
	if len(routes) != gen.stats.Routes || gen.stats.Unreachable == 0 {
		t.Fatalf("%d routes, stats %+v", len(routes), gen.stats)
	}
	for _, r := range routes {
		want, ok := gen.Resolve(r.Src, r.Dst)
		if !ok || !slices.Equal(r.Up, want.Up) || cap(r.Up) != len(r.Up) {
			t.Fatalf("Routes() has %+v (cap %d), Resolve gives %+v, %v", r, cap(r.Up), want, ok)
		}
	}
}

// TestPinPacksStraightIntoRows: a healthy table is built straight into
// its serving form and held nowhere else. At 256 leaves, pinning a
// guided scheme the fabric has not installed (r-NCA-d) allocates under
// 64 KB — its guided base of 256·8 word slots and a row index holding no row,
// where its packed rows were 0.52 MB — and serves every pair's route; a
// scheme that is not guided (Random) is routed a row at a time into
// packed rows, under 1 MB (routing an unpacked 65 280-route table first
// and packing it took 4.2 MB). And a table cache shared with the fabric
// serves no table build through New and an optimize swap to r-NCA-u —
// its table half reads 0 hits and 0 misses.
func TestPinPacksStraightIntoRows(t *testing.T) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 16})
	cache := core.NewTableCache(8)
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Cache: cache, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	// Leaves 0-14 of switch 0 to one leaf under each other switch: every
	// d-mod-k route funnels through one top switch, r-NCA-u spreads them.
	for s := 0; s < 15; s++ {
		if _, ok := f.Resolve(s, 16+16*s); !ok {
			t.Fatalf("pair (%d,%d) did not resolve", s, 16+16*s)
		}
	}
	res, err := f.Optimize(OptimizeConfig{Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped || res.Best != "r-NCA-u" {
		t.Fatalf("optimize picked %s (swapped %v), want a swap to r-NCA-u", res.Best, res.Swapped)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 0 {
		t.Errorf("shared table cache read %d hits / %d misses after New and an optimize swap, want 0 / 0", hits, misses)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	for _, tc := range []struct {
		algo  core.Algorithm
		bound uint64
		held  bool
	}{
		{core.NewRandomNCADown(tp, 7), 64 << 10, false},
		{core.NewRandom(tp, 7), 1 << 20, true},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tbl, hit, err := f.pinLocked(tc.algo)
		runtime.ReadMemStats(&after)
		if err != nil || hit {
			t.Fatalf("pinning %s: hit %v, err %v", tc.algo.Name(), hit, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= tc.bound {
			t.Errorf("pinning %s at %d leaves allocated %d B, want < %d", tc.algo.Name(), tp.Leaves(), got, tc.bound)
		}
		if (tbl.held != nil) != tc.held || (tbl.guided == nil) == !tc.held || tbl.excAt != nil {
			t.Errorf("%s pinned with held rows %v, a guided base %v and exceptions %v, want rows held %v", tc.algo.Name(), tbl.held != nil, tbl.guided != nil, tbl.excAt != nil, tc.held)
		}
		for s := 0; s < tbl.n; s++ {
			for d := 0; d < tbl.n; d++ {
				if word, want := tbl.word(s, d), packRoute(tc.algo.Route(s, d)); word != want {
					t.Fatalf("%s pinned (%d,%d) = %#x, want %#x", tc.algo.Name(), s, d, word, want)
				}
			}
		}
	}
}
