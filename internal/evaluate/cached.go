package evaluate

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/trace"
	"repro/internal/xgft"
)

// scoreKey identifies one evaluation, keyed the way core.TableCache
// keys tables: topology spec, algorithm (or route-set) identity, and
// pattern content. The cheap exact invariants (phase count, flow
// count, byte total) ride along with the 64-bit fingerprints so a hash
// collision alone cannot alias two evaluations.
type scoreKey struct {
	backend string
	topo    string
	algo    string // CacheKey for Score; "" for ScoreRoutes
	kind    byte   // 's' = Score, 'r' = ScoreRoutes
	phases  int
	flows   int
	bytes   int64
	content uint64 // folded phase fingerprints, or (pattern, routes) hash
}

// CachedEvaluator memoizes a backend's results across sweeps and
// re-optimization rounds in an internal/memo cache, so an evaluation
// with the same topology spec, algorithm identity (core.CacheKeyer) or
// route-set content, and pattern content is computed once, however
// many workers ask for it at a time. Algorithms that do not implement
// core.CacheKeyer are never memoized (their identity cannot be named),
// and a capacity <= 0 cache is a plain delegation. Cached Results are
// shared; callers must not mutate the PerPhase slice.
type CachedEvaluator struct {
	inner   Evaluator
	memo    *memo.Cache[scoreKey, Result] // nil at capacity <= 0
	scoreNS atomic.Pointer[obs.Histogram]
	tracer  atomic.Pointer[trace.Tracer]
}

// NewCached wraps an evaluator in a cache retaining at most capacity
// results; at capacity <= 0 every call delegates.
func NewCached(inner Evaluator, capacity int) *CachedEvaluator {
	describe := func(k scoreKey) string { return fmt.Sprintf("evaluate: %s evaluation on %s", k.backend, k.topo) }
	return &CachedEvaluator{inner: inner, memo: memo.New[scoreKey, Result](capacity, describe)}
}

const (
	metricCacheHits      = "evaluate_cache_hits_total"
	metricCacheMisses    = "evaluate_cache_misses_total"
	metricCacheCoalesced = "evaluate_cache_coalesced_total"
	metricScoreNS        = "evaluate_score_ns"

	spanScore     = "evaluate.score"
	attrHit       = "hit"
	attrCoalesced = "coalesced"
)

// SpanNames lists every span name the cached evaluator can record,
// for the docs-drift check and the fabricd trace inventory.
func SpanNames() []string { return []string{spanScore} }

// Trace attaches a tracer: every memoized evaluation records an
// evaluate.score span annotated hit/miss (and coalesced when the call
// waited on an identical in-flight evaluation). The span's trace id
// derives from the score key's content hash, so identical evaluations
// land in the same trace across runs and the sampling verdict for a
// given scoring problem is stable. Call before concurrent use.
func (c *CachedEvaluator) Trace(tr *trace.Tracer) { c.tracer.Store(tr) }

// Instrument registers the evaluate_* instruments on the registry:
// hit/miss/coalesce counters read at scrape time from the memo's
// counters, plus a latency histogram over backend computations
// (cache hits are not observed — they are the point of the cache).
// Call once per registry, before concurrent use.
func (c *CachedEvaluator) Instrument(reg *obs.Registry) {
	reg.CounterFunc(metricCacheHits, "evaluations served from the memo", func() uint64 { h, _, _ := c.Stats(); return h })
	reg.CounterFunc(metricCacheMisses, "evaluations computed by the backend", func() uint64 { _, m, _ := c.Stats(); return m })
	reg.CounterFunc(metricCacheCoalesced, "evaluations served by waiting on an identical in-flight call", func() uint64 { _, _, co := c.Stats(); return co })
	c.scoreNS.Store(reg.Histogram(metricScoreNS, "backend score latency (cache misses only)"))
}

// Name reports the wrapped backend's name: a cache changes cost, not
// semantics, so reports and rank comparisons stay backend-labelled.
func (c *CachedEvaluator) Name() string { return c.inner.Name() }

// Score memoizes algorithm-based evaluations for memoizable
// algorithms and delegates the rest.
func (c *CachedEvaluator) Score(t *xgft.Topology, algo core.Algorithm, phases []*pattern.Pattern) (Result, error) {
	keyer, ok := algo.(core.CacheKeyer)
	if c.memo == nil || !ok {
		return c.inner.Score(t, algo, phases)
	}
	key := scoreKey{
		backend: c.inner.Name(),
		topo:    t.String(),
		algo:    keyer.CacheKey(),
		kind:    's',
		phases:  len(phases),
	}
	h := hashutil.Mix(0xe7a1)
	for _, p := range phases {
		key.flows += len(p.Flows)
		key.bytes += p.TotalBytes()
		h = hashutil.Fold(h, uint64(p.N), p.Fingerprint())
	}
	key.content = h
	return c.memoized(key, func() (Result, error) { return c.inner.Score(t, algo, phases) })
}

// ScoreRoutes memoizes explicit-route evaluations on the content of
// the (pattern, routes) pair — the identity core.TableCache cannot
// name, which is what makes repeated optimizer rounds over a stable
// observed pattern free.
func (c *CachedEvaluator) ScoreRoutes(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route) (Result, error) {
	if c.memo == nil {
		return c.inner.ScoreRoutes(t, p, routes)
	}
	key := scoreKey{
		backend: c.inner.Name(),
		topo:    t.String(),
		kind:    'r',
		phases:  1,
		flows:   len(p.Flows),
		bytes:   p.TotalBytes(),
		content: hashutil.Fold(hashutil.Mix(0xe7a2), uint64(p.N), p.Fingerprint(), routesFingerprint(routes)),
	}
	return c.memoized(key, func() (Result, error) { return c.inner.ScoreRoutes(t, p, routes) })
}

// routesFingerprint hashes a route set's content in order.
func routesFingerprint(routes []xgft.Route) uint64 {
	h := hashutil.Mix(0x10e7e5, uint64(len(routes)))
	for _, r := range routes {
		h = hashutil.Fold(h, uint64(r.Src), uint64(r.Dst), uint64(len(r.Up)))
		for _, p := range r.Up {
			h = hashutil.Fold(h, uint64(p))
		}
	}
	return h
}

// memoized serves key through the memo, recording an evaluate.score
// span for every call and the backend's latency for every miss.
func (c *CachedEvaluator) memoized(key scoreKey, compute func() (Result, error)) (Result, error) {
	// The span's trace derives from the key content, so the same
	// scoring problem traces identically whether it hits or misses —
	// a hit shows as a microsecond span, a miss as the backend's cost.
	tr := c.tracer.Load()
	sp := tr.StartSpan(tr.Root(key.content, uint64(key.kind)), spanScore)
	res, outcome, err := c.memo.Get(key, func() (Result, error) {
		if h := c.scoreNS.Load(); h != nil {
			defer func(start time.Time) { h.Observe(time.Since(start).Nanoseconds()) }(time.Now()) //lint:allow nondeterminism backend latency measurement is observational (histogram only)
		}
		return compute()
	})
	hit := int64(0)
	if outcome == memo.Hit {
		hit = 1
	}
	sp.SetAttr(attrHit, hit)
	if outcome == memo.Coalesced {
		sp.SetAttr(attrCoalesced, 1)
	}
	sp.End()
	return res, err
}

// Stats reports memoization effectiveness: hits, misses, and calls
// served by waiting on an identical in-flight evaluation.
func (c *CachedEvaluator) Stats() (hits, misses, coalesced uint64) { return c.memo.Stats() }

// Len returns the number of currently retained results.
func (c *CachedEvaluator) Len() int { return c.memo.Len() }

// Purge drops every retained result, keeping the counters.
func (c *CachedEvaluator) Purge() { c.memo.Purge() }
