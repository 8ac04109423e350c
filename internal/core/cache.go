package core

import (
	"fmt"

	"repro/internal/memo"
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
// computations. Computing one reads every flow twice.
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
// wants; a caller that measurably asks for the same table or the same
// Colored construction again (a daemon's evaluator and optimizer, a
// sweep whose cells score one pattern) constructs its own. Cached *Table
// values must not be mutated by callers — routes are index data valid
// for any topology with the same spec.
//
// Both halves, tables and algorithm constructions, are internal/memo
// caches of capacity entries: safe for concurrent use, with concurrent
// misses on one key coalesced (the case parallel sweep cells
// produce). A capacity <= 0 cache behaves like a nil one.
type TableCache struct {
	tables *memo.Cache[tableKey, *Table]
	algos  *memo.Cache[string, Algorithm]
}

// NewTableCache returns a cache retaining at most capacity tables.
// capacity <= 0 disables storage entirely (every Build recomputes).
func NewTableCache(capacity int) *TableCache {
	return &TableCache{
		tables: memo.New[tableKey, *Table](capacity, func(k tableKey) string { return fmt.Sprintf("core: table build for %q on %s", k.algo, k.topo) }),
		algos:  memo.New[string, Algorithm](capacity, func(k string) string { return fmt.Sprintf("core: algorithm construction %q", k) }),
	}
}

// MemoAlgorithm memoizes an expensive deterministic algorithm
// construction (the pattern-aware optimizer spends milliseconds per
// topology) under the caller's key, which must encode every
// construction input. The returned instance may be shared across
// goroutines, so build must produce an algorithm whose Route is safe
// for concurrent use. Pass-through and nil caches always rebuild.
func (c *TableCache) MemoAlgorithm(key string, build func() Algorithm) Algorithm {
	if c == nil {
		return build()
	}
	algo, _, err := c.algos.Get(key, func() (Algorithm, error) { return build(), nil })
	if err != nil {
		// The construction this call waited on panicked: build here,
		// so a panic reaches this caller too.
		return build()
	}
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
	key := tableKey{topo: t.String(), algo: keyer.CacheKey(), pattern: KeyPattern(p)}
	tbl, _, err := c.tables.Get(key, func() (*Table, error) { return BuildTable(t, algo, p) })
	return tbl, err
}

// keyer returns algo's cache identity, nil when this cache does not
// memoize it (nil or pass-through cache, non-memoizable algorithm).
func (c *TableCache) keyer(algo Algorithm) CacheKeyer {
	if c == nil || c.tables == nil {
		return nil
	}
	keyer, _ := algo.(CacheKeyer)
	return keyer
}

// Coalesced reports how many Build calls were served by waiting on an
// identical in-flight computation instead of recomputing (neither a
// hit nor a miss in Stats' terms).
func (c *TableCache) Coalesced() uint64 {
	if c == nil {
		return 0
	}
	_, _, coalesced := c.tables.Stats()
	return coalesced
}

// Stats reports hits and misses of memoizable Build calls since
// construction (pass-through builds are not counted; see Coalesced and
// MemoStats for the rest).
func (c *TableCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	hits, misses, _ = c.tables.Stats()
	return hits, misses
}

// MemoStats reports MemoAlgorithm's hits and misses since
// construction (coalesced calls are not counted).
func (c *TableCache) MemoStats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	hits, misses, _ = c.algos.Stats()
	return hits, misses
}
