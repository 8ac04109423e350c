package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

// CacheKeyer is implemented by algorithms whose Route function is a
// pure function of (topology spec, CacheKey): the same key on an
// equal-spec topology always yields the same routes. The key must
// therefore encode everything the algorithm was constructed from
// beyond the topology — the seed for the randomized schemes, the
// input phases for the pattern-aware ones. Algorithms that do not
// implement it are never memoized.
type CacheKeyer interface {
	CacheKey() string
}

// PatternKey is the pattern's part of a table cache key: the content
// fingerprint plus the cheap exact invariants (N, flow count, byte
// total), so a 64-bit hash collision alone cannot alias two different
// computations. Computing one reads every flow twice; a caller that
// builds many tables over one immutable pattern takes it once with
// KeyPattern and passes it to BuildKeyed.
type PatternKey struct {
	n           int
	flows       int
	bytes       int64
	fingerprint uint64
}

// KeyPattern computes p's cache key. The key is stale as soon as p is
// modified.
func KeyPattern(p *pattern.Pattern) PatternKey {
	return PatternKey{n: p.N, flows: len(p.Flows), bytes: p.TotalBytes(), fingerprint: p.Fingerprint()}
}

// tableKey identifies one BuildTable computation.
type tableKey struct {
	topo    string
	algo    string
	pattern PatternKey
}

// TableCache memoizes BuildTable results for the caller that
// constructs one: the same (topology spec, algorithm identity, pattern
// content) triple is computed once and shared read-only afterwards.
// There is no default instance — a nil *TableCache builds, hands the
// table over and retains nothing, which is what a one-shot sweep
// wants; a caller that measurably asks for the same table again (a
// fabric, a sweep building many fabrics over one topology) constructs
// its own. Cached *Table values must not be mutated by callers —
// routes are index data valid for any topology with the same spec.
//
// The cache is safe for concurrent use, and concurrent Build calls
// for the same key are coalesced singleflight-style: one caller
// computes, the rest wait for its result instead of duplicating the
// work (the case a fabric rebuild storm produces). Capacity bounds
// the number of retained tables with FIFO eviction; a capacity <= 0
// cache behaves like a nil one (never stores, never coalesces).
type TableCache struct {
	capacity   int
	hits       atomic.Uint64
	misses     atomic.Uint64
	coalesced  atomic.Uint64
	algoHits   atomic.Uint64
	algoMisses atomic.Uint64

	mu       sync.Mutex
	entries  map[tableKey]*Table
	order    []tableKey
	inflight map[tableKey]*inflightBuild

	algoMu    sync.Mutex
	algos     map[string]Algorithm
	algoOrder []string
}

// inflightBuild is one in-progress BuildTable computation; done is
// closed after tbl/err are set.
type inflightBuild struct {
	done chan struct{}
	tbl  *Table
	err  error
}

// NewTableCache returns a cache retaining at most capacity tables.
// capacity <= 0 disables storage entirely (every Build recomputes).
func NewTableCache(capacity int) *TableCache {
	return &TableCache{
		capacity: capacity,
		entries:  make(map[tableKey]*Table),
		inflight: make(map[tableKey]*inflightBuild),
		algos:    make(map[string]Algorithm),
	}
}

// MemoAlgorithm memoizes an expensive deterministic algorithm
// construction (the pattern-aware optimizer spends milliseconds per
// topology) under the caller's key, which must encode every
// construction input. The returned instance may be shared across
// goroutines, so build must produce an algorithm whose Route is safe
// for concurrent use. Pass-through and nil caches always rebuild.
func (c *TableCache) MemoAlgorithm(key string, build func() Algorithm) Algorithm {
	if c == nil || c.capacity <= 0 {
		return build()
	}
	c.algoMu.Lock()
	algo, ok := c.algos[key]
	c.algoMu.Unlock()
	if ok {
		c.algoHits.Add(1)
		return algo
	}
	c.algoMisses.Add(1)
	algo = build()
	c.algoMu.Lock()
	if _, exists := c.algos[key]; !exists {
		for len(c.algoOrder) >= c.capacity {
			oldest := c.algoOrder[0]
			c.algoOrder = c.algoOrder[1:]
			delete(c.algos, oldest)
		}
		c.algos[key] = algo
		c.algoOrder = append(c.algoOrder, key)
	}
	c.algoMu.Unlock()
	return algo
}

// Build returns the routing table for the flow set, serving it from
// the cache when the algorithm is memoizable (implements CacheKeyer)
// and the triple has been built before. A nil cache, a pass-through
// cache, and a non-memoizable algorithm all fall back to BuildTable.
func (c *TableCache) Build(t *xgft.Topology, algo Algorithm, p *pattern.Pattern) (*Table, error) {
	keyer := c.keyer(algo)
	if keyer == nil {
		return BuildTable(t, algo, p)
	}
	return c.build(t, algo, keyer, p, KeyPattern(p))
}

// BuildKeyed is Build for a caller that already holds p's key: pk must
// be KeyPattern(p) of the unmodified p.
func (c *TableCache) BuildKeyed(t *xgft.Topology, algo Algorithm, p *pattern.Pattern, pk PatternKey) (*Table, error) {
	keyer := c.keyer(algo)
	if keyer == nil {
		return BuildTable(t, algo, p)
	}
	return c.build(t, algo, keyer, p, pk)
}

// keyer returns algo's cache identity, nil when this cache does not
// memoize it (nil or pass-through cache, non-memoizable algorithm).
func (c *TableCache) keyer(algo Algorithm) CacheKeyer {
	if c == nil || c.capacity <= 0 {
		return nil
	}
	keyer, _ := algo.(CacheKeyer)
	return keyer
}

// build serves a memoizable table from the cache, computing it on a
// miss.
func (c *TableCache) build(t *xgft.Topology, algo Algorithm, keyer CacheKeyer, p *pattern.Pattern, pk PatternKey) (*Table, error) {
	key := tableKey{topo: t.String(), algo: keyer.CacheKey(), pattern: pk}
	c.mu.Lock()
	if tbl := c.entries[key]; tbl != nil {
		c.mu.Unlock()
		c.hits.Add(1)
		return tbl, nil
	}
	if fl := c.inflight[key]; fl != nil {
		// Another goroutine is already computing this table: wait for
		// it instead of duplicating the build.
		c.mu.Unlock()
		<-fl.done
		c.coalesced.Add(1)
		return fl.tbl, fl.err
	}
	fl := &inflightBuild{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()
	c.misses.Add(1)
	// Complete the flight even if BuildTable panics (a malformed
	// pattern can make an algorithm panic): the key must not stay
	// wedged and waiters must not hang on done. The panic itself
	// still propagates to this caller; waiters see an error.
	defer func() {
		if fl.tbl == nil && fl.err == nil {
			fl.err = fmt.Errorf("core: table build for %q on %s panicked", key.algo, key.topo)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err == nil {
			if _, exists := c.entries[key]; !exists {
				for len(c.order) >= c.capacity {
					oldest := c.order[0]
					c.order = c.order[1:]
					delete(c.entries, oldest)
				}
				c.entries[key] = fl.tbl
				c.order = append(c.order, key)
			}
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.tbl, fl.err = BuildTable(t, algo, p)
	return fl.tbl, fl.err
}

// Coalesced reports how many Build calls were served by waiting on an
// identical in-flight computation instead of recomputing (neither a
// hit nor a miss in Stats' terms).
func (c *TableCache) Coalesced() uint64 {
	if c == nil {
		return 0
	}
	return c.coalesced.Load()
}

// Stats reports table-lookup effectiveness: hits and misses of
// memoizable Build calls since construction (pass-through builds and
// MemoAlgorithm lookups are not counted — see MemoStats).
func (c *TableCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// MemoStats reports MemoAlgorithm effectiveness: hits and misses of
// memoized algorithm constructions since construction.
func (c *TableCache) MemoStats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.algoHits.Load(), c.algoMisses.Load()
}
