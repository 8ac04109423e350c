package fabric

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// churnPattern is a mixed observed load: an adversarial funnel plus
// keyed-random flows, the shape a telemetry snapshot has mid-churn.
func churnPattern(tp *xgft.Topology, flows int, key uint64) *pattern.Pattern {
	n := tp.Leaves()
	p := adversarialPattern(tp)
	for i := 0; i < flows; i++ {
		s := int(hashutil.Mix(key, 1, uint64(i)) % uint64(n))
		d := int(hashutil.Mix(key, 2, uint64(i)) % uint64(n))
		if s == d {
			continue
		}
		p.Add(s, d, int64(hashutil.Mix(key, 3, uint64(i))%4096)+1)
	}
	return p
}

func feedTelemetry(t *testing.T, f *Fabric, p *pattern.Pattern) {
	t.Helper()
	tel := f.Telemetry()
	for _, fl := range p.Flows {
		tel.RecordN(fl.Src, fl.Dst, uint64(fl.Bytes))
	}
}

// TestOptimizeIncrementalMatchesFull is the pass-level differential
// contract, healthy and under faults: every candidate score — taken
// from the candidate's routes on the observed pairs alone — equals a
// from-scratch recompute over the candidate's all-pairs table patched
// wholesale (core.PatchTable) and scored by a fresh evaluator, and the
// generation derive publishes serves exactly the winner's patched
// routes.
func TestOptimizeIncrementalMatchesFull(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	obs := churnPattern(tp, 200, 0xc0ffee)
	n := tp.Leaves()
	pairs := pattern.AllToAll(n, 1)
	ref := evaluate.NewAnalytic(nil)
	swaps := 0
	for round := 0; round < 3; round++ {
		if round == 1 {
			if _, err := f.FailLink(1, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
		feedTelemetry(t, f, obs)
		seed := uint64(round) + 1
		view, snap := f.Generation().view, f.SnapshotFlows()
		res, err := f.Optimize(OptimizeConfig{Reset: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cands := f.candidates(snap, seed)
		if len(res.Candidates) != len(cands) {
			t.Fatalf("round %d: %d candidates scored, want %d", round, len(res.Candidates), len(cands))
		}
		var best *core.Table
		for i, cand := range cands {
			tbl, err := core.BuildTable(tp, cand, pairs)
			if err != nil {
				t.Fatal(err)
			}
			patched, _, err := core.PatchTable(tbl, view)
			if err != nil {
				t.Fatal(err)
			}
			q := pattern.New(n)
			var routes []xgft.Route
			for _, fl := range snap.Flows {
				if r := patched.Routes[allPairsIndex(n, fl.Src, fl.Dst)]; r.Up != nil {
					q.Add(fl.Src, fl.Dst, fl.Bytes)
					routes = append(routes, r)
				}
			}
			want, err := ref.ScoreRoutes(tp, q, routes)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Candidates[i]; got.Algo != cand.Name() || got.Slowdown != want.Slowdown {
				t.Fatalf("round %d: candidate %d scored %+v, from-scratch reference %s/%v", round, i, got, cand.Name(), want.Slowdown)
			}
			if best == nil && cand.Name() == res.Best {
				best = patched
			}
		}
		if !res.Swapped {
			continue
		}
		swaps++
		if res.SwapTouched == 0 {
			t.Errorf("round %d: swap installed but SwapTouched = 0", round)
		}
		gen := f.Generation()
		for i, fl := range pairs.Flows {
			got, ok := gen.Resolve(fl.Src, fl.Dst)
			want := best.Routes[i]
			if ok != (want.Up != nil) || !slices.Equal(got.Up, want.Up) {
				t.Fatalf("round %d: pair (%d,%d) resolves %v/%v, the winner's patched table has %v", round, fl.Src, fl.Dst, got, ok, want)
			}
		}
	}
	if swaps == 0 {
		t.Error("no round swapped; the installer half of the differential never ran")
	}
}

// TestDeriveHoldsOnlyChangedWords pins derive's memory discipline:
// installing a table that changes a handful of routes holds exactly
// those words as exceptions, over the rule the pinned table and the
// predecessor generation share — no row is materialized, exactly as
// under FailLink — and certifies only the changed routes. (A real
// optimize winner may legitimately differ on every row, so this is
// tested with crafted overrides on the serving scheme's own table.)
func TestDeriveHoldsOnlyChangedWords(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	cur := f.Generation()
	base, hit, err := f.pinLocked(core.NewDModK(tp)) // an equal scheme, not the configured instance
	if err != nil || !hit || base != f.configured {
		t.Fatalf("pinLocked(d-mod-k) = %p, hit %v, err %v; want the configured scheme's pinned table %p", base, hit, err, f.configured)
	}
	// Move three routes of source 0 and one of source 5 to a
	// different root: four touched routes across two sources.
	perSrc := map[int]int{0: 3, 5: 1} // sources to touch and how many routes of each
	var moved []xgft.Route
	for _, r := range cur.Routes() {
		if perSrc[r.Src] == 0 || len(r.Up) < 2 {
			continue
		}
		nr := xgft.Route{Src: r.Src, Dst: r.Dst, Up: append([]int(nil), r.Up...)}
		nr.Up[1] = (nr.Up[1] + 1) % tp.W(1)
		moved = append(moved, nr)
		perSrc[r.Src]--
	}
	if len(moved) != 4 {
		t.Fatalf("crafted %d overrides, want 4", len(moved))
	}
	gen, err := f.derive(time.Now(), base, moved, cur.view, cur.stats.Seq+1, "crafted")
	if err != nil {
		t.Fatal(err)
	}
	if touched := wordsChanged(gen, cur); touched != 4 {
		t.Errorf("derive touched %d routes, want 4", touched)
	}
	if gen.stats.CertifiedRoutes != 4 {
		t.Errorf("derive certified %d routes, want the 4 moved ones", gen.stats.CertifiedRoutes)
	}
	if len(gen.exc) != 4 || gen.stats.ExceptionWords != 4 {
		t.Errorf("derive holds %d exception words (ExceptionWords %d), want the 4 moved ones", len(gen.exc), gen.stats.ExceptionWords)
	}
	for s, want := 0, map[int]int{0: 3, 5: 1}; s < gen.n; s++ {
		if len(gen.run(s)) != want[s] {
			t.Errorf("source %d holds %d exceptions, want %d", s, len(gen.run(s)), want[s])
		}
	}
	if !sameRule(&gen.routes, &base.routes) || !sameRule(&cur.routes, &base.routes) {
		t.Fatal("the generations do not share the pinned guided base")
	}
	// The derived generation resolves the moved routes, not the old
	// ones, and everything else as before.
	want := make(map[[2]int][]int)
	for _, r := range cur.Routes() {
		want[[2]int{r.Src, r.Dst}] = r.Up
	}
	for _, r := range moved {
		want[[2]int{r.Src, r.Dst}] = r.Up
	}
	for pair, up := range want {
		got, ok := gen.Resolve(pair[0], pair[1])
		if !ok || !slices.Equal(got.Up, up) {
			t.Fatalf("pair %v resolves %v/%v, want %v", pair, got, ok, up)
		}
	}
	// The pinned table itself was not written to: a guided scheme's is
	// its guided base alone, and generation 0 holds no exception.
	if base.held != nil || base.excAt != nil || cur.excAt != nil {
		t.Fatal("the pinned d-mod-k table or generation 0 holds words beyond the guided base")
	}
	if got := cur.Routes(); len(got) != len(want) {
		t.Fatal("the predecessor's routes changed")
	}

	// Overrides out of (src, dst) order, or invalid, refuse the
	// generation, and nothing is published.
	if _, err := f.derive(time.Now(), base, []xgft.Route{moved[3], moved[0]}, cur.view, cur.stats.Seq+1, "crafted"); err == nil {
		t.Error("derive accepted overrides out of order")
	}
	bad := xgft.Route{Src: 7, Dst: 60, Up: []int{0, tp.W(1)}}
	if _, err := f.derive(time.Now(), base, []xgft.Route{moved[0], bad}, cur.view, cur.stats.Seq+1, "crafted"); err == nil {
		t.Error("derive accepted an override with a port past its radix")
	}
	if f.Generation() != cur {
		t.Error("a refused derive published a generation")
	}
}

// TestFailLinkHoldsOnlyReroutedWords is the scale guard of the serving
// form: on 4 096 leaves, one top-level fault under d-mod-k — which
// reroutes words of every source, since every source has a destination
// whose guide ascent crosses the failed wire — holds exactly the
// rerouted words as exceptions and serves the configured guided base,
// where a row per touched source would be 4 096 rows and 128 MB.
func TestFailLinkHoldsOnlyReroutedWords(t *testing.T) {
	tp := xgft.MustNew(3, []int{16, 16, 16}, []int{1, 16, 16})
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.FailLink(2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	gen := f.Generation()
	if st.Patched == 0 || st.Unreachable != 0 || st.ExceptionWords != st.Patched || len(gen.exc) != st.Patched {
		t.Errorf("FailLink(2,5,3) patched %d, left %d unreachable and holds %d exception words (%d kept); want exactly the patched words",
			st.Patched, st.Unreachable, st.ExceptionWords, len(gen.exc))
	}
	if !sameRule(&gen.routes, &f.configured.routes) {
		t.Error("the faulted generation does not serve the configured guided base")
	}
}

// TestOptimizeIncrementalRace runs optimize passes (scoring plus the
// derive install, which shares the pinned tables' rules and the serving
// generation's exceptions) and fault churn while readers hammer packed batch
// resolves — a pass must never perturb what concurrent readers observe
// (generations stay immutable).
// Run with -race.
func TestOptimizeIncrementalRace(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	n := tp.Leaves()
	obs := churnPattern(tp, 100, 0xace)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := uint64(g + 1)
			pairs := make([][2]int, 64)
			words := make([]uint64, len(pairs))
			for !stop.Load() {
				for i := range pairs {
					h = hashutil.Splitmix64(h)
					pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
				}
				f.ResolveBatchPacked(pairs, words)
				for i, r := range unpackedRoutes(pairs, words) {
					if pairs[i][0] == pairs[i][1] || r.Up == nil {
						continue
					}
					if err := r.Validate(tp); err != nil {
						select {
						case errs <- err:
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	for round := 0; round < 3 && len(errs) == 0; round++ {
		feedTelemetry(t, f, obs)
		if _, err := f.Optimize(OptimizeConfig{Reset: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.FailLink(1, 1, round%4); err != nil {
			t.Fatal(err)
		}
		feedTelemetry(t, f, obs)
		if _, err := f.Optimize(OptimizeConfig{Reset: true}); err != nil {
			t.Fatal(err)
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
}
