// Package memo is the bounded memo under the repo's result caches: the
// routing-table and algorithm memos (core.TableCache), the evaluator
// cache (evaluate.CachedEvaluator) and the simulator's crossbar
// reference runs. Each keys a deterministic computation by the content
// of its inputs, so a retained result is as good as a recomputed one.
package memo

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fifo"
)

// Outcome says how Get served a call.
type Outcome uint8

const (
	Miss      Outcome = iota // this call ran compute
	Hit                      // served from a retained result
	Coalesced                // waited on a concurrent miss on the same key
)

// Cache memoizes compute results by key, retaining at most capacity of
// them and evicting the oldest first. It is safe for concurrent use,
// and concurrent misses on one key are coalesced: one caller computes,
// the rest wait for its result. Errors are returned but never
// retained. Retained values are shared; callers must not mutate them.
// A nil Cache is the pass-through memo: every Get computes, nothing is
// retained or counted.
type Cache[K comparable, V any] struct {
	capacity int
	describe func(K) string

	hits, misses, coalesced atomic.Uint64

	mu      sync.Mutex
	entries map[K]*entry[V] // guarded by mu; retained and in flight
	order   fifo.Queue[K]   // guarded by mu; retained keys, oldest first
}

// entry is one key's result: done is closed once v and err are set,
// and ready is set under the cache's mu once v is retained.
type entry[V any] struct {
	done  chan struct{}
	ready bool
	v     V
	err   error
}

// New returns a memo retaining at most capacity results, or the nil
// pass-through memo when capacity <= 0. describe is called only when a
// computation panics, to name it in the error its waiters get.
func New[K comparable, V any](capacity int, describe func(K) string) *Cache[K, V] {
	if capacity <= 0 {
		return nil
	}
	return &Cache[K, V]{capacity: capacity, describe: describe, entries: make(map[K]*entry[V])}
}

// Get returns key's retained result, waits on a concurrent miss on
// key, or runs compute and retains its result unless it is an error.
// A panic in compute reaches this caller; its waiters get an error and
// the key can be computed again.
func (c *Cache[K, V]) Get(key K, compute func() (V, error)) (V, Outcome, error) {
	if c == nil {
		v, err := compute()
		return v, Miss, err
	}
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		ready := e.ready
		c.mu.Unlock()
		if ready {
			c.hits.Add(1)
			return e.v, Hit, nil
		}
		<-e.done
		c.coalesced.Add(1)
		return e.v, Coalesced, e.err
	}
	e := &entry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)
	completed := false
	defer func() {
		if !completed {
			e.err = fmt.Errorf("%s panicked", c.describe(key))
		}
		c.mu.Lock()
		if e.err != nil {
			delete(c.entries, key)
		} else {
			for c.order.Len() >= c.capacity {
				delete(c.entries, c.order.Pop())
			}
			c.order.Push(key)
			e.ready = true
		}
		c.mu.Unlock()
		close(e.done)
	}()
	e.v, e.err = compute()
	completed = true
	return e.v, Miss, e.err
}

// Stats reports the calls served as hits, misses and coalesced waits.
func (c *Cache[K, V]) Stats() (hits, misses, coalesced uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.coalesced.Load()
}

// Len returns the number of retained results.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Purge drops every retained result, keeping the counters and any
// computation in flight.
func (c *Cache[K, V]) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	for !c.order.Empty() {
		delete(c.entries, c.order.Pop())
	}
	c.mu.Unlock()
}
