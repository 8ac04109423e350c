package sched

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/evaluate"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// schedSeed domain-separates the scheduler's keyed-hash draws from
// every other consumer of the splitmix64 stream.
const schedSeed = 0x5c4ed

// Request is everything a policy may consult to place one job. The
// scheduler builds it under its mutex, so policies see a frozen pool.
type Request struct {
	// Topo is the fabric's healthy topology.
	Topo *xgft.Topology
	// Free lists the free leaves, ascending.
	Free []int
	// N is the job size; len(Free) >= N is guaranteed.
	N int
	// JobID is the identity the job will get: the only per-job
	// randomness key, so a policy's draw is a pure function of
	// (seed, job id) and replays identically.
	JobID uint64
	// Seed is the scheduler's seed.
	Seed uint64
	// Pattern is the job's aggregate rank-space traffic.
	Pattern *pattern.Pattern
	// Background is the traffic currently observed on the fabric in
	// leaf space: the telemetry snapshot when the fabric counts
	// flows, otherwise the combined pattern of the placed tenants.
	Background *pattern.Pattern
	// Resolve returns the fabric's currently installed route for a
	// leaf pair (one consistent generation for the whole placement).
	Resolve func(src, dst int) (xgft.Route, bool)
	// Evaluator scores candidate allocations for traffic-aware
	// policies. The scheduler fills it in from its configuration; a
	// hand-built request may leave it nil, which scores with the
	// analytic default.
	Evaluator evaluate.Evaluator
	// Metrics, when set, attaches the evaluate_* delta instruments to
	// the background LoadState the telemetry policy scores against.
	Metrics *obs.Registry
}

// Policy chooses leaves for a job. Place must return exactly req.N
// distinct free leaves in ascending order, and must be deterministic
// in its request (no shared RNG, index-order tie-breaking) — the
// property that keeps concurrent churn sweeps byte-identical.
type Policy interface {
	Name() string
	Place(req *Request) ([]int, error)
}

// Linear is first-fit contiguous: the first run of N consecutive
// free leaves, falling back to the N lowest-indexed free leaves when
// fragmentation has destroyed every large-enough hole. The contiguous
// case generalizes the paper's sequential mapping to a busy cluster.
func Linear() Policy { return linearPolicy{} }

type linearPolicy struct{}

func (linearPolicy) Name() string { return "linear" }

func (linearPolicy) Place(req *Request) ([]int, error) {
	free := req.Free
	start := 0
	for i := range free {
		if i > 0 && free[i] != free[i-1]+1 {
			start = i
		}
		if i-start+1 == req.N {
			return append([]int(nil), free[start:i+1]...), nil
		}
	}
	// No hole is big enough: scatter over the lowest free leaves.
	return append([]int(nil), free[:req.N]...), nil
}

// Random places the job on a uniform subset of the free leaves drawn
// from the keyed splitmix64 stream under (seed, job id) — the
// placement analogue of the Random routing baseline, and like it a
// deterministic function of its key.
func Random() Policy { return randomPolicy{} }

type randomPolicy struct{}

func (randomPolicy) Name() string { return "random" }

func (randomPolicy) Place(req *Request) ([]int, error) {
	perm := pattern.KeyedPerm(len(req.Free), hashutil.Mix(schedSeed, req.Seed, req.JobID))
	leaves := make([]int, req.N)
	for i := range leaves {
		leaves[i] = req.Free[perm[i]]
	}
	sort.Ints(leaves)
	return leaves, nil
}

// Balanced spreads jobs across the top-level subtrees: each
// allocation drains the subtree with the most free leaves first, so
// successive jobs land in different subtrees, every job occupies the
// fewest subtrees the pool allows, and tenants share as few NCA
// (top-level) links as possible. Ties break on the lowest subtree
// index; leaves within a subtree are taken in ascending order.
func Balanced() Policy { return balancedPolicy{} }

type balancedPolicy struct{}

func (balancedPolicy) Name() string { return "balanced" }

// subtreeOf maps a leaf to its top-level subtree: the most
// significant M-digit of its label (radix m_h). Two leaves in the
// same subtree reach each other below the roots; two in different
// subtrees must cross a top-level NCA link.
func subtreeOf(t *xgft.Topology, leaf int) int {
	return leaf / (t.Leaves() / t.M(t.Height()-1))
}

func (balancedPolicy) Place(req *Request) ([]int, error) {
	nSub := req.Topo.M(req.Topo.Height() - 1)
	bySub := make([][]int, nSub)
	for _, l := range req.Free {
		g := subtreeOf(req.Topo, l)
		bySub[g] = append(bySub[g], l)
	}
	leaves := make([]int, 0, req.N)
	for len(leaves) < req.N {
		best := -1
		for g := range bySub {
			if len(bySub[g]) == 0 {
				continue
			}
			if best < 0 || len(bySub[g]) > len(bySub[best]) {
				best = g
			}
		}
		take := req.N - len(leaves)
		if take > len(bySub[best]) {
			take = len(bySub[best])
		}
		leaves = append(leaves, bySub[best][:take]...)
		bySub[best] = bySub[best][take:]
	}
	sort.Ints(leaves)
	return leaves, nil
}

// telemetryCandidates is how many keyed-random draws the telemetry
// policy scores besides the linear and balanced proposals.
const telemetryCandidates = 4

// Telemetry scores candidate allocations — the linear proposal, the
// balanced proposal, and a few keyed-random draws — by embedding the
// job's remapped pattern into the currently observed background flows
// and scoring the combination under the fabric's installed routes
// with the request's evaluator (the analytic slowdown bound by
// default). The lowest score wins; ties break on candidate order.
// This is the placement counterpart of the fabric's telemetry-driven
// table optimizer: the same observed-traffic signal, steering
// allocation instead of routing.
//
// Under the analytic evaluator the background is materialized once
// into an evaluate.LoadState and each candidate is scored by applying
// its remapped job flows as a pattern-delta and reverting —
// O(job flows) per candidate instead of re-resolving and re-scoring
// the whole background. Any other evaluator's score is not a pure
// per-link load function, so it re-embeds the job into the background
// and scores each candidate from scratch; under the analytic evaluator
// both paths produce bit-identical scores and therefore identical
// placements (the differential tests inject an analytic evaluator under
// another name to prove it).
func Telemetry() Policy { return telemetryPolicy{} }

type telemetryPolicy struct{}

func (telemetryPolicy) Name() string { return "telemetry" }

func (telemetryPolicy) Place(req *Request) ([]int, error) {
	cands := make([][]int, 0, 2+telemetryCandidates)
	if c, err := Linear().Place(req); err == nil {
		cands = append(cands, c)
	}
	if c, err := Balanced().Place(req); err == nil {
		cands = append(cands, c)
	}
	for i := 0; i < telemetryCandidates; i++ {
		perm := pattern.KeyedPerm(len(req.Free), hashutil.Mix(schedSeed, req.Seed, req.JobID, uint64(i)+1))
		c := make([]int, req.N)
		for j := range c {
			c[j] = req.Free[perm[j]]
		}
		sort.Ints(c)
		cands = append(cands, c)
	}
	// Only the analytic score is a pure per-link load function, so only
	// it can be read off a shared background state; any other evaluator
	// scores each candidate from scratch.
	var ls *evaluate.LoadState
	if req.Evaluator == nil || req.Evaluator.Name() == evaluate.Analytic {
		var err error
		if ls, err = backgroundLoadState(req); err != nil {
			return nil, err
		}
	}
	best, bestScore := -1, 0.0
	for i, cand := range cands {
		var score float64
		var err error
		if ls != nil {
			score, err = scorePlacementDelta(req, ls, cand)
		} else {
			score, err = scorePlacement(req, cand)
		}
		if err != nil {
			return nil, err
		}
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return cands[best], nil
}

// backgroundLoadState materializes the background traffic's per-link
// loads under the installed routes, shared across every candidate of
// one placement.
func backgroundLoadState(req *Request) (*evaluate.LoadState, error) {
	n := req.Topo.Leaves()
	q := pattern.New(n)
	var routes []xgft.Route
	for _, fl := range req.Background.Flows {
		if fl.Src == fl.Dst {
			continue
		}
		r, ok := req.Resolve(fl.Src, fl.Dst)
		if !ok {
			continue
		}
		q.Add(fl.Src, fl.Dst, fl.Bytes)
		routes = append(routes, r)
	}
	ls, err := evaluate.NewLoadState(req.Topo, q, routes)
	if err != nil {
		return nil, err
	}
	if req.Metrics != nil {
		ls.Instrument(req.Metrics)
	}
	return ls, nil
}

// scorePlacementDelta scores one candidate by applying the job's
// remapped flows as a pattern-delta to the shared background
// LoadState and reverting. Flow inclusion mirrors scorePlacement
// exactly — self-flows and pairs the fabric cannot resolve are
// dropped — and the loads are exact int64 sums, so the score is
// bit-identical to the from-scratch path.
func scorePlacementDelta(req *Request, ls *evaluate.LoadState, leaves []int) (float64, error) {
	add := make([]evaluate.RoutedFlow, 0, len(req.Pattern.Flows))
	for _, fl := range req.Pattern.Flows {
		src, dst := leaves[fl.Src], leaves[fl.Dst]
		if src == dst {
			continue
		}
		r, ok := req.Resolve(src, dst)
		if !ok {
			continue
		}
		add = append(add, evaluate.RoutedFlow{Route: r, Bytes: fl.Bytes})
	}
	if err := ls.ApplyPatternDelta(add, nil); err != nil {
		return 0, err
	}
	score := ls.Slowdown()
	if err := ls.ApplyPatternDelta(nil, add); err != nil {
		return 0, err
	}
	return score, nil
}

// scorePlacement embeds the job (remapped onto the candidate leaves)
// into the background flows and scores the combination under the
// fabric's installed routes with the request's evaluator. Pairs the
// fabric cannot currently resolve (severed by faults) are dropped
// from the scored pattern, mirroring fabric.Optimize's scoring rule.
func scorePlacement(req *Request, leaves []int) (float64, error) {
	n := req.Topo.Leaves()
	combined := pattern.New(n)
	combined.Flows = append(combined.Flows, req.Background.Flows...)
	for _, fl := range req.Pattern.Flows {
		combined.Add(leaves[fl.Src], leaves[fl.Dst], fl.Bytes)
	}
	q := pattern.New(n)
	routes := make([]xgft.Route, 0, len(combined.Flows))
	for _, fl := range combined.Flows {
		if fl.Src == fl.Dst {
			continue
		}
		r, ok := req.Resolve(fl.Src, fl.Dst)
		if !ok {
			continue
		}
		q.Add(fl.Src, fl.Dst, fl.Bytes)
		routes = append(routes, r)
	}
	ev := req.Evaluator
	if ev == nil {
		ev = evaluate.NewAnalytic(nil)
	}
	res, err := ev.ScoreRoutes(req.Topo, q, routes)
	if err != nil {
		return 0, err
	}
	return res.Slowdown, nil
}

// PolicyNames lists the selectable policies in presentation order.
func PolicyNames() []string { return []string{"linear", "random", "balanced", "telemetry"} }

// PolicyByName resolves a policy by its command-line name.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "linear":
		return Linear(), nil
	case "random":
		return Random(), nil
	case "balanced":
		return Balanced(), nil
	case "telemetry":
		return Telemetry(), nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q (want %s)", name, strings.Join(PolicyNames(), ", "))
	}
}
