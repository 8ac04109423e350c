package fabric

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
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
// One scoring path serves the serving generation and every candidate:
// ask it for its routes on the observed pairs — nothing else; no
// all-pairs table is built for a candidate that does not win — and hand
// them to the fabric's evaluator (scoreRoutesLocked): a handful of flat
// censuses per pass under the analytic default, into scratch the fabric
// keeps across calls. The winner installs through derive, the one way
// any generation is made: its static scheme's pinned table (Colored's is
// its d-mod-k fallback's, with its assignments as overrides) as the
// rule, and only the words that differ from it held apart.

// OptimizeConfig parameterizes one re-optimization pass.
type OptimizeConfig struct {
	// Threshold is the minimum relative improvement of the best
	// candidate over the current generation required to swap: 0.05
	// demands 5% lower analytic slowdown. 0 swaps on any strict
	// improvement. Optimize refuses a threshold CheckThreshold refuses.
	Threshold float64
	// Seed feeds the randomized candidates (r-NCA-u/d) and the
	// Colored sampler. Defaults to 1, so passes are reproducible.
	Seed uint64
	// Reset zeroes the telemetry counters as they are snapshotted (one
	// pass; no resolve falls between the two), making each pass observe
	// exactly the traffic since the previous one.
	Reset bool
}

// CheckThreshold refuses a swap threshold the gate cannot compare
// against: NaN, against which every comparison is false, so the gate
// would never hold a swap back; an infinity; or a negative value.
func CheckThreshold(t float64) error {
	if !(t >= 0) || math.IsInf(t, 1) {
		return fmt.Errorf("fabric: threshold %v is not a finite non-negative number", t)
	}
	return nil
}

func (c OptimizeConfig) withDefaults() OptimizeConfig {
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
	// SwapTouched counts the packed routes the installed generation
	// changed relative to its predecessor (0 when no swap happened).
	SwapTouched int
	// Swapped reports whether a new generation was installed; Stats
	// describes the generation serving after the pass either way.
	Swapped bool
	Stats   Stats
}

// Optimize runs one telemetry-driven re-optimization pass: snapshot
// the flow counters, score the current generation and the candidate
// schemes (d-mod-k, r-NCA-u/d, and Colored seeded with the observed
// pattern) on the observed
// pattern with the fabric's evaluator (analytic slowdown bound by
// default, any evaluate.Evaluator by injection), and hot-swap the
// best candidate in if it improves on the serving table by more than
// the threshold.
//
// The pass composes with fault handling: candidate routes are rerouted
// around the current generation's degraded view before scoring and
// during installation, so an optimize swap never resurrects a failed
// wire,
// and the pass serializes with FailLink/FailSwitch/Heal on the
// fabric's mutex while readers stay lock-free on the old generation.
// Heal still rebuilds the configured scheme's healthy table,
// discarding any optimized choice along with the faults.
func (f *Fabric) Optimize(cfg OptimizeConfig) (res OptimizeResult, err error) {
	if f.tel == nil {
		return OptimizeResult{}, fmt.Errorf("fabric: telemetry is disabled (enable Config.Telemetry)")
	}
	if err := CheckThreshold(cfg.Threshold); err != nil {
		return OptimizeResult{}, err
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

	obs := f.tel.snapshot(cfg.Reset)
	cur := f.gen.Load()
	res = OptimizeResult{
		Pairs:    len(obs.Flows),
		Resolves: obs.TotalBytes(),
		Stats:    cur.stats,
	}
	if len(obs.Flows) == 0 {
		return res, nil // nothing observed: no signal to act on
	}
	view := cur.view

	// Pairs whose minimal paths are all severed are dropped from the
	// scored pattern; every candidate's routes go through the same view
	// with the same reroute search, so the surviving flow set — and with
	// it the comparison — is identical across candidates.
	if res.Current, err = f.scoreRoutesLocked(obs, cur.Resolve); err != nil {
		return res, err
	}

	var best core.Algorithm
	for _, cand := range f.candidates(obs, cfg.Seed) {
		cs := f.tracer.StartChild(sp.Context(), spanCandidate)
		score, err := f.scoreRoutesLocked(obs, func(s, d int) (xgft.Route, bool) {
			return core.RerouteAvoiding(view, cand.Route(s, d))
		})
		if err != nil {
			cs.End()
			return res, fmt.Errorf("fabric: candidate %s: %w", cand.Name(), err)
		}
		cs.SetAttr(attrSlowdownPPM, int64(score*1e6))
		cs.End()
		res.Candidates = append(res.Candidates, CandidateScore{Algo: cand.Name(), Slowdown: score})
		if best == nil || score < res.BestSlowdown {
			best = cand
			res.Best, res.BestSlowdown = cand.Name(), score
		}
	}
	// Swap only on strict improvement beyond the threshold. Identical
	// tables score bit-identically, so a generation already serving
	// the best candidate never churns.
	if best == nil || res.Current-res.BestSlowdown <= cfg.Threshold*res.Current {
		return res, nil
	}
	// The winner as a pinned table plus overrides: Colored is its
	// fallback scheme's table with its assignments written over it.
	buildStart := buildClock()
	var overrides []xgft.Route
	if col, ok := best.(*core.Colored); ok {
		best, overrides = col.Fallback(), col.Assignments()
	}
	base, hit, err := f.pinLocked(best)
	if err != nil {
		return res, fmt.Errorf("fabric: candidate %s: %w", res.Best, err)
	}
	gen, err := f.derive(buildStart, base, overrides, view, cur.stats.Seq+1, res.Best)
	if err != nil {
		return res, fmt.Errorf("fabric: candidate table rejected: %w", err)
	}
	gen.stats.CacheHit = hit
	f.publish(gen, "optimize")
	res.Swapped, res.SwapTouched = true, wordsChanged(gen, cur)
	res.Stats = gen.stats
	return res, nil
}

// journalOptimize records one pass's decision event ("optimize", or
// "optimize.error" for aborted passes) with per-candidate scores and
// the threshold verdict.
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
	f.journal.Record(eventOptimize, dur, map[string]any{
		"pairs": res.Pairs, "resolves": res.Resolves,
		"current": res.Current, "candidates": cands,
		"best": res.Best, "best_slowdown": res.BestSlowdown,
		"threshold": threshold, "swapped": res.Swapped,
		"swap_touched": res.SwapTouched, "generation": res.Stats.Seq,
	})
}

// candidates enumerates the candidate schemes for an observed
// pattern, in scoring order. The Colored optimizer is memoized
// through the table cache's algorithm memo (keyed by topology, pattern
// content and seed), so repeated passes over a stable pattern reuse it.
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

// scoreRoutesLocked scores the observed pattern under the per-pair
// route function with the fabric's evaluator, dropping unreachable
// pairs from both the pattern and the normalization. The scored pattern
// and its routes are the fabric's scratch, reused by every call; no
// evaluator keeps either past the call. Callers hold f.mu.
func (f *Fabric) scoreRoutesLocked(obs *pattern.Pattern, route func(s, d int) (xgft.Route, bool)) (float64, error) {
	q := &f.scored
	q.N, q.Flows, f.scoredRoutes = obs.N, q.Flows[:0], f.scoredRoutes[:0]
	for _, fl := range obs.Flows {
		r, ok := route(fl.Src, fl.Dst)
		if !ok {
			continue
		}
		q.Add(fl.Src, fl.Dst, fl.Bytes)
		f.scoredRoutes = append(f.scoredRoutes, r)
	}
	res, err := f.eval.ScoreRoutes(f.topo, q, f.scoredRoutes)
	if err != nil {
		return 0, err
	}
	return res.Slowdown, nil
}
