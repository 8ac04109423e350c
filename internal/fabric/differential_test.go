package fabric

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/contention"
	"repro/internal/contention/oracle"
	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// refFabric is the control plane as it was before generations were
// derived, kept as the oracle of TestDerivedMatchesFromScratch: the
// table is a flat []xgft.Route (Up == nil marks an unreachable pair),
// every change rebuilds or patches it wholesale (core.BuildTable,
// core.PatchTable), every candidate of an optimize pass is built for
// all pairs before it is scored, and every installed table is certified
// from scratch (contention.VerifyDeadlockFree). It shares no code with
// derive, the pinned tables or the growing certificate.
type refFabric struct {
	tp     *xgft.Topology
	algo   core.Algorithm
	pairs  *pattern.Pattern
	routes []xgft.Route
	view   *xgft.View
	stats  Stats
}

func newRefFabric(t *testing.T, tp *xgft.Topology, algo core.Algorithm) *refFabric {
	t.Helper()
	r := &refFabric{tp: tp, algo: algo, pairs: pattern.AllToAll(tp.Leaves(), 1)}
	if err := r.heal(0); err != nil {
		t.Fatal(err)
	}
	return r
}

// install certifies routes from scratch and makes them the serving
// table.
func (r *refFabric) install(seq uint64, algo string, routes []xgft.Route, view *xgft.View, patched int) error {
	reachable := make([]xgft.Route, 0, len(routes))
	for _, rt := range routes {
		if rt.Up != nil {
			reachable = append(reachable, rt)
		}
	}
	if err := contention.VerifyDeadlockFree(r.tp, reachable); err != nil {
		return err
	}
	r.routes, r.view = routes, view
	r.stats = Stats{
		Seq: seq, Algo: algo, Routes: len(reachable), Patched: patched,
		Unreachable: len(routes) - len(reachable),
		FailedWires: view.FailedWires(), FailedSwitches: len(view.FailedSwitches()),
	}
	return nil
}

func (r *refFabric) heal(seq uint64) error {
	tbl, err := core.BuildTable(r.tp, r.algo, r.pairs)
	if err != nil {
		return err
	}
	return r.install(seq, r.algo.Name(), tbl.Routes, xgft.NewView(r.tp), 0)
}

func (r *refFabric) degrade(fail func(*xgft.View) bool) error {
	view := r.view.Clone()
	if !fail(view) {
		return fmt.Errorf("out of range or already failed")
	}
	patched, st, err := core.PatchTable(&core.Table{Topo: r.tp, Algo: r.stats.Algo, Routes: r.routes}, view)
	if err != nil {
		return err
	}
	return r.install(r.stats.Seq+1, r.stats.Algo, patched.Routes, view, st.Rerouted)
}

// score is the analytic slowdown of the observed flows that have a
// route in the table, by a fresh evaluator.
func (r *refFabric) score(obs *pattern.Pattern, routes []xgft.Route) (float64, error) {
	n := r.tp.Leaves()
	q := pattern.New(n)
	var picked []xgft.Route
	for _, fl := range obs.Flows {
		if rt := routes[allPairsIndex(n, fl.Src, fl.Dst)]; rt.Up != nil {
			q.Add(fl.Src, fl.Dst, fl.Bytes)
			picked = append(picked, rt)
		}
	}
	res, err := evaluate.NewAnalytic(nil).ScoreRoutes(r.tp, q, picked)
	return res.Slowdown, err
}

func sameUp(a, b xgft.Route) bool {
	return (a.Up == nil) == (b.Up == nil) && slices.Equal(a.Up, b.Up)
}

func (r *refFabric) optimize(obs *pattern.Pattern, cfg OptimizeConfig) (OptimizeResult, error) {
	res := OptimizeResult{Pairs: len(obs.Flows), Resolves: obs.TotalBytes(), Stats: r.stats}
	if len(obs.Flows) < 1 {
		return res, nil
	}
	var err error
	if res.Current, err = r.score(obs, r.routes); err != nil {
		return res, err
	}
	var best *core.Table
	var bestPatched int
	for _, cand := range []core.Algorithm{
		core.NewDModK(r.tp),
		core.NewRandomNCAUp(r.tp, cfg.Seed),
		core.NewRandomNCADown(r.tp, cfg.Seed),
		core.NewColored(r.tp, []*pattern.Pattern{obs}, core.ColoredConfig{Seed: cfg.Seed}),
	} {
		tbl, err := core.BuildTable(r.tp, cand, r.pairs)
		if err != nil {
			return res, err
		}
		patched, st, err := core.PatchTable(tbl, r.view)
		if err != nil {
			return res, err
		}
		score, err := r.score(obs, patched.Routes)
		if err != nil {
			return res, err
		}
		res.Candidates = append(res.Candidates, CandidateScore{Algo: cand.Name(), Slowdown: score})
		if best == nil || score < res.BestSlowdown {
			best, bestPatched = patched, st.Rerouted
			res.Best, res.BestSlowdown = cand.Name(), score
		}
	}
	if res.Current-res.BestSlowdown <= cfg.Threshold*res.Current {
		return res, nil
	}
	for i := range best.Routes {
		if !sameUp(best.Routes[i], r.routes[i]) {
			res.SwapTouched++
		}
	}
	if err := r.install(r.stats.Seq+1, res.Best, best.Routes, r.view, bestPatched); err != nil {
		return res, err
	}
	res.Swapped, res.Stats = true, r.stats
	return res, nil
}

// commonStats strips what only a derived generation has (how it was
// built and how long that took) from its stats.
func commonStats(st Stats) Stats {
	st.CacheHit, st.CertifiedRoutes, st.ExceptionWords, st.BuildTime, st.VerifyTime = false, 0, 0, 0, 0
	return st
}

// TestDerivedMatchesFromScratch drives a fabric and the from-scratch
// reference through the same keyed-random sequence of FailLink,
// FailSwitch, Optimize (over rotating observed patterns, healthy and
// under faults) and Heal (after faults, after Colored installs). After
// every publish the derived generation serves, word for word, the
// reference's table; the map-keyed oracle certifies its route set; its
// stats and the pass's scores, winner and touched count equal the
// reference's; and the routes of every generation published so far,
// added to one certificate, still verify: the union the stateless gate
// covers. Refused operations are refused by both.
func TestDerivedMatchesFromScratch(t *testing.T) {
	for _, tp := range []*xgft.Topology{
		xgft.MustNew(2, []int{16, 16}, []int{1, 10}),
		xgft.MustNew(2, []int{8, 8}, []int{1, 4}),
		xgft.MustNew(3, []int{4, 3, 5}, []int{1, 2, 3}),
	} {
		t.Run(tp.String(), func(t *testing.T) {
			steps := 200
			if testing.Short() {
				steps = 40
			}
			n := tp.Leaves()
			algo := core.NewRandomNCAUp(tp, 5)
			f := telemetryFabric(t, tp, algo)
			ref := newRefFabric(t, tp, core.NewRandomNCAUp(tp, 5))
			rng := hashutil.NewStream(hashutil.Mix(0xd1ff, uint64(n)))
			patterns := []*pattern.Pattern{
				adversarialPattern(tp),
				churnPattern(tp, 3*n, 1),
				pattern.KeyedRandomPermutation(n, 64, 2),
				churnPattern(tp, n/2, 3),
				pattern.UniformRandom(n, 2, 16, 4),
			}
			publishes, refusals, swaps, colored := 0, 0, 0, 0
			union, err := contention.NewCertifier(tp)
			if err != nil {
				t.Fatal(err)
			}
			check := func(step int, what string) {
				t.Helper()
				publishes++
				gen := f.Generation()
				for i, fl := range ref.pairs.Flows {
					want := PackedUnreachable
					if r := ref.routes[i]; r.Up != nil {
						want = packRoute(r)
					}
					if got := gen.lookup(uint64(fl.Src), uint64(fl.Dst)); got != want {
						t.Fatalf("step %d (%s): pair (%d,%d) serves %#x, the from-scratch table has %#x", step, what, fl.Src, fl.Dst, got, want)
					}
				}
				if got, want := commonStats(gen.stats), ref.stats; got != want {
					t.Fatalf("step %d (%s): stats %+v, from scratch %+v", step, what, got, want)
				}
				if err := oracle.VerifyRoutes(tp, gen.Routes()); err != nil {
					t.Fatalf("step %d (%s): the map oracle refuses the published routes: %v", step, what, err)
				}
				for _, r := range gen.Routes() {
					if err := union.Add(r.Src, r.Dst, r.Up); err != nil {
						t.Fatal(err)
					}
				}
				if err := union.Verify(); err != nil {
					t.Fatalf("step %d (%s): the union of the published generations: %v", step, what, err)
				}
			}
			for step := 0; step < steps; step++ {
				var what string
				var err, refErr error
				switch op := rng.Intn(10); {
				case op < 3:
					l := rng.Intn(tp.Height())
					idx, p := rng.Intn(tp.NodesAt(l)), rng.Intn(tp.W(l))
					what = fmt.Sprintf("fail-link %d,%d,%d", l, idx, p)
					_, err = f.FailLink(l, idx, p)
					refErr = ref.degrade(func(v *xgft.View) bool { return v.FailLink(l, idx, p) })
					if err == nil && refErr == nil && step%4 == 0 { // and once more: the duplicate is refused
						check(step, what)
						what += " again"
						_, err = f.FailLink(l, idx, p)
						refErr = ref.degrade(func(v *xgft.View) bool { return v.FailLink(l, idx, p) })
					}
				case op < 4:
					l := 1 + rng.Intn(tp.Height())
					idx := rng.Intn(tp.NodesAt(l))
					what = fmt.Sprintf("fail-switch %d,%d", l, idx)
					_, err = f.FailSwitch(l, idx)
					refErr = ref.degrade(func(v *xgft.View) bool { return v.FailSwitch(l, idx) })
				case op < 6:
					what = "heal"
					_, err = f.Heal()
					refErr = ref.heal(ref.stats.Seq + 1)
				default:
					obs := patterns[step%len(patterns)]
					cfg := OptimizeConfig{Reset: true, Seed: 1 + uint64(step%3), Threshold: 0.02 * float64(step%2)}
					what = fmt.Sprintf("optimize pattern %d seed %d", step%len(patterns), cfg.Seed)
					feedTelemetry(t, f, obs)
					snap := f.SnapshotFlows()
					var got, want OptimizeResult
					got, err = f.Optimize(cfg)
					want, refErr = ref.optimize(snap, cfg)
					if err == nil && refErr == nil {
						got.Stats = commonStats(got.Stats)
						if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
							t.Fatalf("step %d (%s): pass result\n%+v\nfrom scratch\n%+v", step, what, got, want)
						}
						if !got.Swapped {
							continue
						}
						swaps++
						if got.Best == "colored" {
							colored++
						}
					}
				}
				if (err == nil) != (refErr == nil) {
					t.Fatalf("step %d (%s): fabric returned %v, the reference %v", step, what, err, refErr)
				}
				if err != nil {
					refusals++
					continue
				}
				check(step, what)
			}
			if !testing.Short() && (publishes < steps/2 || refusals == 0 || swaps < 10 || colored == 0) {
				t.Errorf("%d publishes, %d refusals, %d optimize swaps (%d to Colored) in %d steps; the sequence should exercise all of them", publishes, refusals, swaps, colored, steps)
			}
		})
	}
}
