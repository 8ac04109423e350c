package fabric

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/pattern"
	"repro/internal/trace"
	"repro/internal/xgft"
)

// The re-optimization loop: the paper's central observation is that
// no single oblivious scheme wins across traffic patterns — the best
// table depends on the pattern being run. A static fabric serves one
// scheme forever; Optimize instead snapshots the telemetry counters,
// scores the current generation against candidate tables (the
// oblivious baselines plus the pattern-aware Colored optimizer seeded
// with the observed pattern), and hot-swaps a better table in, the
// way robust-clustering estimators re-fit as the observed data
// distribution shifts.
//
// Scoring converges by deltas, not rebuilds: under the analytic
// evaluator the pass materializes the observed pattern's per-link
// loads once (evaluate.LoadState, seeded with the serving routes) and
// scores each candidate by applying only its route differences and
// reverting — O(touched links) per candidate instead of a full
// contention census. Candidates whose delta crosses the cutover (a
// structurally different table, not churn-scale drift) score with one
// flat pass instead, so the delta discipline never costs more than
// the rebuild it replaces. The winning table installs through the same
// delta discipline FailLink uses: rows that no candidate route
// changed are shared with the serving generation, only touched rows
// repack. Both fall back to the from-scratch path — a non-analytic
// evaluator (whose score is not a pure per-link load function), a
// candidate whose resolvable pair set diverges from the serving
// generation's, or an explicit OptimizeConfig.FullRebuild.

// OptimizeConfig parameterizes one re-optimization pass.
type OptimizeConfig struct {
	// Threshold is the minimum relative improvement of the best
	// candidate over the current generation required to swap: 0.05
	// demands 5% lower analytic slowdown. 0 swaps on any strict
	// improvement.
	Threshold float64
	// MinFlows is the minimum number of distinct observed pairs below
	// which the pass is a no-op (not enough signal). Defaults to 1.
	MinFlows int
	// Seed feeds the randomized candidates (r-NCA-u/d) and the
	// Colored sampler. Defaults to 1, so passes are reproducible.
	Seed uint64
	// Reset zeroes the telemetry counters after the snapshot, making
	// each pass observe only the traffic since the previous one.
	Reset bool
	// FullRebuild forces the from-scratch path: every candidate is
	// scored with a full evaluator pass and the winning table is
	// repacked row by row instead of patched by delta. Scores and swap
	// decisions are bit-identical either way (the churn sweep's
	// cross-mode check enforces it); the flag exists for that
	// comparison and as the escape hatch the architecture docs
	// describe.
	FullRebuild bool
}

func (c OptimizeConfig) withDefaults() OptimizeConfig {
	if c.MinFlows <= 0 {
		c.MinFlows = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// CandidateScore is one candidate table's slowdown (under the
// fabric's evaluator) on the observed pattern.
type CandidateScore struct {
	Algo     string
	Slowdown float64
	// Touched counts the observed routes the candidate would change
	// relative to the serving generation. It is 0 when the difference
	// was never computed (a from-scratch pass, or a candidate whose
	// resolvable pair set diverged from the base); a candidate scored
	// from scratch because its delta crossed the cutover still reports
	// the measured delta.
	Touched int
	// Incremental reports whether the score came from the delta path.
	Incremental bool
}

// OptimizeResult describes one re-optimization pass.
type OptimizeResult struct {
	// Pairs and Resolves describe the observed pattern: distinct
	// (src, dst) pairs and total recorded resolves.
	Pairs    int
	Resolves int64
	// Current is the serving generation's slowdown on the observed
	// pattern under the fabric's evaluator (1 exactly when the
	// pattern is contention-free under the current table).
	Current float64
	// Candidates lists every scored candidate in scoring order.
	Candidates []CandidateScore
	// Best names the best-scoring candidate; BestSlowdown its score.
	Best         string
	BestSlowdown float64
	// Incremental reports whether candidate scoring ran on the delta
	// path; LinksTouched is the total per-link load updates it
	// performed (0 when from scratch).
	Incremental  bool
	LinksTouched uint64
	// SwapTouched counts the packed routes the installed generation
	// changed relative to its predecessor (0 when no swap happened or
	// the swap was a full rebuild).
	SwapTouched int
	// Swapped reports whether a new generation was installed; Stats
	// describes the generation serving after the pass either way.
	Swapped bool
	Stats   Stats
}

// allPairsIndex returns the index of pair (s, d) in the all-pairs
// probe pattern (s-major, self-pairs skipped) that fabric tables are
// aligned with.
func allPairsIndex(n, s, d int) int {
	i := s*(n-1) + d
	if d > s {
		i--
	}
	return i
}

// Optimize runs one telemetry-driven re-optimization pass: snapshot
// the flow counters, score the current generation and the candidate
// schemes (d-mod-k, r-NCA-u/d, and Colored seeded with the observed
// pattern — all served through the table cache) on the observed
// pattern with the fabric's evaluator (analytic slowdown bound by
// default, any evaluate.Evaluator by injection), and hot-swap the
// best candidate in if it improves on the serving table by more than
// the threshold.
//
// The pass composes with fault handling: candidates are patched
// through the current generation's degraded view before scoring and
// installation, so an optimize swap never resurrects a failed wire,
// and the pass serializes with FailLink/FailSwitch/Heal on the
// fabric's mutex while readers stay lock-free on the old generation.
// Heal still rebuilds the configured scheme's healthy table,
// discarding any optimized choice along with the faults.
func (f *Fabric) Optimize(cfg OptimizeConfig) (res OptimizeResult, err error) {
	if f.tel == nil {
		return OptimizeResult{}, fmt.Errorf("fabric: telemetry is disabled (enable Config.Telemetry)")
	}
	cfg = cfg.withDefaults()
	start := time.Now() //lint:allow nondeterminism optimizer wall time is observational (journal only)
	// The decision event records what the pass saw and what it decided
	// — every candidate's score, the winner, and the threshold verdict
	// — or the failure that aborted it. It lands after the swap event
	// publish fires, so a journal tail reads swap-then-why.
	defer func() { f.journalOptimize(res, err, cfg.Threshold, time.Since(start)) }() //lint:allow nondeterminism optimizer wall time is observational (journal only)
	// The pass span wraps scoring and the swap decision; a decision
	// outcome that flip-flops (swap, no-swap, swap again within the
	// detector window) is the instability anomaly the blackbox captures.
	sp := f.tracer.StartSpan(trace.SpanContext{}, spanOptimize)
	defer func() {
		sp.SetAttr(attrCandidates, int64(len(res.Candidates)))
		swapped := int64(0)
		if res.Swapped {
			swapped = 1
		}
		sp.SetAttr(attrSwapped, swapped)
		sp.End()
		if err == nil && f.tracer != nil && f.flips.Note(res.Swapped) {
			f.tracer.ReportAnomaly(trace.ReasonFlipFlop)
		}
	}()
	f.mu.Lock()
	defer f.mu.Unlock()

	obs := f.tel.SnapshotFlows()
	if cfg.Reset {
		f.tel.Reset()
	}
	cur := f.gen.Load()
	res = OptimizeResult{
		Pairs:    len(obs.Flows),
		Resolves: obs.TotalBytes(),
		Stats:    cur.stats,
	}
	if len(obs.Flows) < cfg.MinFlows {
		return res, nil
	}
	view := cur.view

	// Materialize the serving generation's base: the observed pattern
	// filtered to resolvable pairs, with the routes the fabric serves
	// today. Pairs whose minimal paths are all severed are dropped
	// from the scored pattern; every candidate is patched through the
	// same view with the same reroute search, so the surviving flow
	// set — and with it the comparison — is identical across
	// candidates (the delta scorer verifies per candidate and falls
	// back to from-scratch scoring if it ever were not).
	base := f.baseState(obs, cur)
	incremental := !cfg.FullRebuild && f.eval.Name() == evaluate.Analytic
	var ls *evaluate.LoadState
	if incremental {
		ls, err = evaluate.NewLoadState(f.topo, base.q, base.routes)
		if err != nil {
			return res, err
		}
		if f.reg != nil {
			ls.Instrument(f.reg)
		}
		res.Incremental = true
		res.Current = ls.Slowdown()
	} else {
		r, serr := f.eval.ScoreRoutes(f.topo, base.q, base.routes)
		if serr != nil {
			return res, serr
		}
		res.Current = r.Slowdown
	}

	var bestTbl *core.Table
	for _, cand := range f.candidates(obs, cfg.Seed) {
		cs := f.tracer.StartChild(sp.Context(), spanCandidate)
		tbl, err := f.buildTable(cand)
		if err != nil {
			cs.End()
			return res, fmt.Errorf("fabric: candidate %s: %w", cand.Name(), err)
		}
		score, err := f.scoreCandidate(obs, base, ls, view, tbl)
		if err != nil {
			cs.End()
			return res, fmt.Errorf("fabric: candidate %s: %w", cand.Name(), err)
		}
		score.Algo = cand.Name()
		if score.Incremental && f.m != nil {
			f.m.candIncremental.Inc()
		}
		cs.SetAttr(attrSlowdownPPM, int64(score.Slowdown*1e6))
		cs.End()
		res.Candidates = append(res.Candidates, score)
		if bestTbl == nil || score.Slowdown < res.BestSlowdown {
			bestTbl = tbl
			res.Best, res.BestSlowdown = cand.Name(), score.Slowdown
		}
	}
	if ls != nil {
		res.LinksTouched = ls.LinksTouched()
	}
	// Swap only on strict improvement beyond the threshold. Identical
	// tables score bit-identically, so a generation already serving
	// the best candidate never churns.
	if bestTbl == nil || res.Current-res.BestSlowdown <= cfg.Threshold*res.Current {
		return res, nil
	}
	var gen *Generation
	if cfg.FullRebuild {
		gen, err = f.genFromTable(bestTbl, view, cur.stats.Seq+1, res.Best)
	} else {
		gen, res.SwapTouched, err = f.genFromTableDelta(bestTbl, view, cur, res.Best)
	}
	if err != nil {
		return res, err
	}
	f.publish(gen, "optimize")
	res.Swapped = true
	res.Stats = gen.stats
	return res, nil
}

// optimizeBase is the serving generation's view of the observed
// pattern: the resolvable flows (q, routes aligned) plus, for each
// raw observed flow, its index into q (-1 when the pair is severed) —
// what the delta scorer diffs candidates against.
type optimizeBase struct {
	q      *pattern.Pattern
	routes []xgft.Route
	qIdx   []int
}

// baseState resolves every observed flow through the serving
// generation, mirroring the historical scoring filter exactly.
func (f *Fabric) baseState(obs *pattern.Pattern, cur *Generation) *optimizeBase {
	base := &optimizeBase{
		q:    pattern.New(obs.N),
		qIdx: make([]int, len(obs.Flows)),
	}
	for i, fl := range obs.Flows {
		r, ok := cur.Resolve(fl.Src, fl.Dst)
		if !ok {
			base.qIdx[i] = -1
			continue
		}
		base.qIdx[i] = len(base.q.Flows)
		base.q.Add(fl.Src, fl.Dst, fl.Bytes)
		base.routes = append(base.routes, r)
	}
	return base
}

// deltaScoreCutover sets where delta scoring stops paying: a
// candidate that changes more than 1/deltaScoreCutover of the
// observed routes is scored from scratch. Applying and reverting a
// near-total delta walks every link twice, which costs more than one
// flat census — the delta path is reserved for the steady-churn
// regime it wins in, where candidates drift from the serving table a
// few routes at a time.
const deltaScoreCutover = 4

// scoreCandidate scores one candidate table on the observed pattern.
// With a LoadState it computes the candidate's route differences
// against the base; a small delta is applied, read, and reverted —
// O(touched links) — while a delta past the cutover scores with one
// evaluator pass over the routes the diff already resolved. Without a
// LoadState (non-analytic evaluator, full rebuild) or for a candidate
// whose resolvable pair set diverges from the base, it scores from
// scratch, reproducing the historical path. Every path produces
// bit-identical scores: the loads are exact integer sums either way.
func (f *Fabric) scoreCandidate(obs *pattern.Pattern, base *optimizeBase, ls *evaluate.LoadState, view *xgft.View, tbl *core.Table) (CandidateScore, error) {
	n := f.topo.Leaves()
	if ls != nil {
		var flows []pattern.Flow
		var oldR, newR []xgft.Route
		candR := make([]xgft.Route, 0, len(base.routes))
		diverged := false
		for i, fl := range obs.Flows {
			r, ok := core.RerouteAvoiding(view, tbl.Routes[allPairsIndex(n, fl.Src, fl.Dst)])
			if ok != (base.qIdx[i] >= 0) {
				// The candidate resolves a different pair set than the
				// serving generation — the base loads are not a valid
				// starting point, so score this candidate from scratch.
				diverged = true
				break
			}
			if !ok {
				continue
			}
			candR = append(candR, r)
			qi := base.qIdx[i]
			if routeEqual(base.routes[qi], r) {
				continue
			}
			flows = append(flows, base.q.Flows[qi])
			oldR = append(oldR, base.routes[qi])
			newR = append(newR, r)
		}
		switch {
		case diverged:
			// Fall through to the historical route-function path below.
		case len(flows)*deltaScoreCutover > len(base.q.Flows):
			// The diff already resolved every candidate route, so the
			// from-scratch score is one evaluator pass over it.
			r, err := f.eval.ScoreRoutes(f.topo, base.q, candR)
			if err != nil {
				return CandidateScore{}, err
			}
			return CandidateScore{Slowdown: r.Slowdown, Touched: len(flows)}, nil
		default:
			if err := ls.ApplyRouteDelta(flows, oldR, newR); err != nil {
				return CandidateScore{}, err
			}
			score := ls.Slowdown()
			if err := ls.ApplyRouteDelta(flows, newR, oldR); err != nil {
				return CandidateScore{}, err
			}
			return CandidateScore{Slowdown: score, Touched: len(flows), Incremental: true}, nil
		}
	}
	score, err := f.scoreRoutes(obs, func(s, d int) (xgft.Route, bool) {
		return core.RerouteAvoiding(view, tbl.Routes[allPairsIndex(n, s, d)])
	})
	if err != nil {
		return CandidateScore{}, err
	}
	return CandidateScore{Slowdown: score}, nil
}

// routeEqual reports whether two routes between the same endpoints
// are the same path (equal ascents; the descent is destination-
// determined).
func routeEqual(a, b xgft.Route) bool {
	if len(a.Up) != len(b.Up) {
		return false
	}
	for i := range a.Up {
		if a.Up[i] != b.Up[i] {
			return false
		}
	}
	return true
}

// journalOptimize records one pass's decision event ("optimize", or
// "optimize.error" for aborted passes) with per-candidate scores and
// the threshold verdict, plus an "optimize.incremental" event for
// delta-path passes with their touched-route counts.
func (f *Fabric) journalOptimize(res OptimizeResult, err error, threshold float64, dur time.Duration) {
	if f.journal == nil {
		return
	}
	if err != nil {
		f.journal.Record(eventOptimizeError, dur, map[string]any{"error": err.Error()})
		return
	}
	cands := make([]map[string]any, len(res.Candidates))
	for i, c := range res.Candidates {
		cands[i] = map[string]any{"algo": c.Algo, "slowdown": c.Slowdown}
	}
	// The incremental detail event lands first so the decision event
	// stays the pass's last word and a journal tail still reads
	// swap-then-why.
	if res.Incremental {
		touched := make([]map[string]any, 0, len(res.Candidates))
		for _, c := range res.Candidates {
			touched = append(touched, map[string]any{"algo": c.Algo, "touched_routes": c.Touched, "incremental": c.Incremental})
		}
		f.journal.Record(eventOptimizeIncremental, dur, map[string]any{
			"pairs": res.Pairs, "candidates": touched,
			"links_touched": res.LinksTouched,
			"swap_touched":  res.SwapTouched, "swapped": res.Swapped,
		})
	}
	f.journal.Record(eventOptimize, dur, map[string]any{
		"pairs": res.Pairs, "resolves": res.Resolves,
		"current": res.Current, "candidates": cands,
		"best": res.Best, "best_slowdown": res.BestSlowdown,
		"threshold": threshold, "swapped": res.Swapped,
		"generation": res.Stats.Seq,
	})
}

// candidates enumerates the candidate schemes for an observed
// pattern, in scoring order. The Colored optimizer is memoized
// through the table cache (keyed by topology, pattern content and
// seed), so repeated passes over a stable pattern reuse it.
func (f *Fabric) candidates(obs *pattern.Pattern, seed uint64) []core.Algorithm {
	coloredKey := fmt.Sprintf("colored|%s|%d:%#x:%#x|%#x",
		f.topo, len(obs.Flows), obs.TotalBytes(), obs.Fingerprint(), seed)
	return []core.Algorithm{
		core.NewDModK(f.topo),
		core.NewRandomNCAUp(f.topo, seed),
		core.NewRandomNCADown(f.topo, seed),
		f.cache.MemoAlgorithm(coloredKey, func() core.Algorithm {
			return core.NewColored(f.topo, []*pattern.Pattern{obs}, core.ColoredConfig{Seed: seed})
		}),
	}
}

// scoreRoutes scores the observed pattern under the per-pair route
// function with the fabric's evaluator, dropping unreachable pairs
// from both the pattern and the normalization.
func (f *Fabric) scoreRoutes(obs *pattern.Pattern, route func(s, d int) (xgft.Route, bool)) (float64, error) {
	q := pattern.New(obs.N)
	routes := make([]xgft.Route, 0, len(obs.Flows))
	for _, fl := range obs.Flows {
		r, ok := route(fl.Src, fl.Dst)
		if !ok {
			continue
		}
		q.Add(fl.Src, fl.Dst, fl.Bytes)
		routes = append(routes, r)
	}
	res, err := f.eval.ScoreRoutes(f.topo, q, routes)
	if err != nil {
		return 0, err
	}
	return res.Slowdown, nil
}

// genFromTable packs a healthy all-pairs table into a generation
// under the given fault view: core.PatchTable (the same repair path
// FailLink uses) reroutes the routes riding failed wires and marks
// pairs with no surviving minimal path, which pack to the unreachable
// sentinel. The result must pass certify or installation
// is refused.
func (f *Fabric) genFromTable(tbl *core.Table, view *xgft.View, seq uint64, algoName string) (*Generation, error) {
	start := time.Now() //lint:allow nondeterminism candidate build time is observational (journal/metrics only)
	patched, st, err := core.PatchTable(tbl, view)
	if err != nil {
		return nil, err
	}
	n := f.topo.Leaves()
	shards := make([][]uint64, n)
	for s := range shards {
		shards[s] = make([]uint64, n)
	}
	for i, fl := range f.pairs.Flows {
		r := patched.Routes[i]
		if r.Up == nil {
			shards[fl.Src][fl.Dst] = PackedUnreachable
			continue
		}
		shards[fl.Src][fl.Dst] = packRoute(r)
	}
	gen := &Generation{
		topo:   f.topo,
		view:   view,
		shards: shards,
		stats: Stats{
			Seq:            seq,
			Algo:           algoName,
			Routes:         len(f.pairs.Flows) - st.Unreachable,
			Patched:        st.Rerouted,
			Unreachable:    st.Unreachable,
			FailedWires:    view.FailedWires(),
			FailedSwitches: len(view.FailedSwitches()),
		},
	}
	if err := f.certify(gen, start); err != nil {
		return nil, fmt.Errorf("fabric: candidate table rejected: %w", err)
	}
	return gen, nil
}

// genFromTableDelta packs the winning table against the serving
// generation the way FailLink's patch does: rows whose packed routes
// are unchanged are shared with cur, and a row is cloned
// copy-on-write the first time one of its routes differs. The route
// set still flows through core.PatchTable (the same repair machinery)
// and the full certify gate; only the packing is
// differential. Returns the number of packed routes that changed.
func (f *Fabric) genFromTableDelta(tbl *core.Table, view *xgft.View, cur *Generation, algoName string) (*Generation, int, error) {
	start := time.Now() //lint:allow nondeterminism candidate build time is observational (journal/metrics only)
	patched, st, err := core.PatchTable(tbl, view)
	if err != nil {
		return nil, 0, err
	}
	n := f.topo.Leaves()
	shards := make([][]uint64, n)
	copy(shards, cur.shards)
	touched := 0
	for i, fl := range f.pairs.Flows {
		r := patched.Routes[i]
		v := PackedUnreachable
		if r.Up != nil {
			v = packRoute(r)
		}
		if shards[fl.Src][fl.Dst] == v {
			continue
		}
		if isSameRow(shards[fl.Src], cur.shards[fl.Src]) {
			shards[fl.Src] = append([]uint64(nil), cur.shards[fl.Src]...)
		}
		shards[fl.Src][fl.Dst] = v
		touched++
	}
	gen := &Generation{
		topo:   f.topo,
		view:   view,
		shards: shards,
		stats: Stats{
			Seq:            cur.stats.Seq + 1,
			Algo:           algoName,
			Routes:         len(f.pairs.Flows) - st.Unreachable,
			Patched:        st.Rerouted,
			Unreachable:    st.Unreachable,
			FailedWires:    view.FailedWires(),
			FailedSwitches: len(view.FailedSwitches()),
		},
	}
	if err := f.certify(gen, start); err != nil {
		return nil, 0, fmt.Errorf("fabric: candidate table rejected: %w", err)
	}
	return gen, touched, nil
}

// isSameRow reports whether two row slices are the same array (the
// copy-on-write "not yet cloned" test).
func isSameRow(a, b []uint64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
