package evaluate

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hashutil"
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

// inflightScore is one in-progress evaluation; done is closed after
// res/err are set.
type inflightScore struct {
	done chan struct{}
	res  Result
	err  error
}

// CachedEvaluator memoizes a backend's results across sweeps and
// re-optimization rounds. Identical evaluations — same topology spec,
// same algorithm identity (core.CacheKeyer) or route-set content, same
// pattern content — are computed once; concurrent calls for the same
// key are coalesced singleflight-style, so a sweep fanning one scoring
// problem across workers performs it once. Algorithms that do not
// implement core.CacheKeyer are never memoized (their identity cannot
// be named), and a capacity <= 0 cache is a pass-through.
//
// Safe for concurrent use. Cached Results are shared; callers must not
// mutate the PerPhase slice.
type CachedEvaluator struct {
	inner    Evaluator
	capacity int

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	scoreNS   atomic.Pointer[obs.Histogram]
	tracer    atomic.Pointer[trace.Tracer]

	mu       sync.Mutex
	entries  map[scoreKey]Result         // guarded by mu
	order    []scoreKey                  // guarded by mu
	inflight map[scoreKey]*inflightScore // guarded by mu
}

// NewCached wraps an evaluator with a memoizing, coalescing cache
// retaining at most capacity results. capacity <= 0 disables storage
// entirely (every call delegates).
func NewCached(inner Evaluator, capacity int) *CachedEvaluator {
	return &CachedEvaluator{
		inner:    inner,
		capacity: capacity,
		entries:  make(map[scoreKey]Result),
		inflight: make(map[scoreKey]*inflightScore),
	}
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
// hit/miss/coalesce counters sampled at scrape time from the cache's
// own atomics, plus a latency histogram over backend computations
// (cache hits are not observed — they are the point of the cache).
// Call once per registry, before concurrent use.
func (c *CachedEvaluator) Instrument(reg *obs.Registry) {
	reg.CounterFunc(metricCacheHits, "evaluations served from the memo", func() uint64 { return c.hits.Load() })
	reg.CounterFunc(metricCacheMisses, "evaluations computed by the backend", func() uint64 { return c.misses.Load() })
	reg.CounterFunc(metricCacheCoalesced, "evaluations served by waiting on an identical in-flight call", func() uint64 { return c.coalesced.Load() })
	c.scoreNS.Store(reg.Histogram(metricScoreNS, "backend score latency (cache misses only)"))
}

// Name reports the wrapped backend's name: a cache changes cost, not
// semantics, so reports and rank comparisons stay backend-labelled.
func (c *CachedEvaluator) Name() string { return c.inner.Name() }

// Score memoizes algorithm-based evaluations for memoizable
// algorithms and delegates the rest.
func (c *CachedEvaluator) Score(t *xgft.Topology, algo core.Algorithm, phases []*pattern.Pattern) (Result, error) {
	if c.capacity <= 0 {
		return c.inner.Score(t, algo, phases)
	}
	keyer, ok := algo.(core.CacheKeyer)
	if !ok {
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
	if c.capacity <= 0 {
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

// memoized serves key from the cache, waits on an identical in-flight
// evaluation, or computes and stores. Mirrors core.TableCache.Build,
// including the panic guard: the flight always completes so waiters
// never hang and the key never wedges.
func (c *CachedEvaluator) memoized(key scoreKey, compute func() (Result, error)) (Result, error) {
	// The span's trace derives from the key content, so the same
	// scoring problem traces identically whether it hits or misses —
	// a hit shows as a microsecond span, a miss as the backend's cost.
	tr := c.tracer.Load()
	sp := tr.StartSpan(tr.Root(key.content, uint64(key.kind)), spanScore)
	c.mu.Lock()
	if res, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		sp.SetAttr(attrHit, 1)
		sp.End()
		return res, nil
	}
	if fl := c.inflight[key]; fl != nil {
		c.mu.Unlock()
		<-fl.done
		c.coalesced.Add(1)
		sp.SetAttr(attrHit, 0)
		sp.SetAttr(attrCoalesced, 1)
		sp.End()
		return fl.res, fl.err
	}
	fl := &inflightScore{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()
	c.misses.Add(1)
	completed := false
	defer func() {
		if !completed {
			fl.err = fmt.Errorf("evaluate: %s evaluation on %s panicked", key.backend, key.topo)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err == nil {
			if _, exists := c.entries[key]; !exists {
				for len(c.order) >= c.capacity {
					delete(c.entries, c.order[0])
					c.order = c.order[1:]
				}
				c.entries[key] = fl.res
				c.order = append(c.order, key)
			}
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	start := time.Now() //lint:allow nondeterminism backend latency measurement is observational (histogram only)
	fl.res, fl.err = compute()
	completed = true
	if h := c.scoreNS.Load(); h != nil {
		h.Observe(time.Since(start).Nanoseconds()) //lint:allow nondeterminism backend latency measurement is observational (histogram only)
	}
	sp.SetAttr(attrHit, 0)
	sp.End()
	return fl.res, fl.err
}

// Stats reports memoization effectiveness: hits, misses, and calls
// served by waiting on an identical in-flight evaluation.
func (c *CachedEvaluator) Stats() (hits, misses, coalesced uint64) {
	return c.hits.Load(), c.misses.Load(), c.coalesced.Load()
}

// Len returns the number of currently retained results.
func (c *CachedEvaluator) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every retained result, keeping the counters.
func (c *CachedEvaluator) Purge() {
	c.mu.Lock()
	c.entries = make(map[scoreKey]Result)
	c.order = nil
	c.mu.Unlock()
}
