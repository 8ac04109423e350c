package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

func cacheTestTopo(t *testing.T) *xgft.Topology {
	t.Helper()
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestTableCacheHitsAndEquivalence(t *testing.T) {
	tp := cacheTestTopo(t)
	p := pattern.WRF256()
	c := NewTableCache(16)

	algo := NewRandomNCAUp(tp, 7)
	tbl1, err := c.Build(tp, algo, p)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh equal-seed instance on an equal-spec topology must hit.
	tp2, _ := xgft.NewSlimmedTree(16, 16, 10)
	tbl2, err := c.Build(tp2, NewRandomNCAUp(tp2, 7), p.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if tbl1 != tbl2 {
		t.Error("equal (topo, algo, pattern) triple did not hit the cache")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	// Cached routes must equal a fresh computation.
	fresh, err := BuildTable(tp, NewRandomNCAUp(tp, 7), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tbl1.Routes, fresh.Routes) {
		t.Error("cached routes differ from fresh BuildTable")
	}
}

func TestTableCacheKeysSeparate(t *testing.T) {
	tp := cacheTestTopo(t)
	p := pattern.WRF256()
	c := NewTableCache(64)
	distinct := []Algorithm{
		NewSModK(tp),
		NewDModK(tp),
		NewRandom(tp, 1),
		NewRandom(tp, 2),
		NewRandomNCAUp(tp, 1),
		NewRandomNCADown(tp, 1),
		NewUnbalancedNCAUp(tp, 1),
	}
	for _, algo := range distinct {
		if _, err := c.Build(tp, algo, p); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != uint64(len(distinct)) {
		t.Errorf("distinct algorithms aliased: %d hits / %d misses", hits, misses)
	}
	// Different w2 must not alias either.
	slim, _ := xgft.NewSlimmedTree(16, 16, 9)
	if _, err := c.Build(slim, NewSModK(slim), p); err != nil {
		t.Fatal(err)
	}
	if hits, _ := c.Stats(); hits != 0 {
		t.Error("different topology spec hit the cache")
	}
}

func TestTableCacheCapacityAndPassThrough(t *testing.T) {
	tp := cacheTestTopo(t)
	p := pattern.WRF256()
	c := NewTableCache(2)
	for seed := uint64(1); seed <= 4; seed++ {
		if _, err := c.Build(tp, NewRandom(tp, seed), p); err != nil {
			t.Fatal(err)
		}
	}
	// FIFO at capacity 2: seeds 3 and 4 are retained, 1 and 2 are gone.
	for _, seed := range []uint64{3, 4, 1} {
		if _, err := c.Build(tp, NewRandom(tp, seed), p); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 5 {
		t.Errorf("capacity 2 cache: %d hits / %d misses after 1,2,3,4,3,4,1, want 2 / 5", hits, misses)
	}

	// Pass-through and nil caches never store but still build.
	for _, pc := range []*TableCache{NewTableCache(0), nil} {
		tbl, err := pc.Build(tp, NewSModK(tp), p)
		if err != nil || tbl == nil {
			t.Fatalf("pass-through build failed: %v", err)
		}
		if again, _ := pc.Build(tp, NewSModK(tp), p); again == tbl {
			t.Error("pass-through cache stored an entry")
		}
	}

	// Non-memoizable algorithms (no CacheKey) bypass storage.
	c2 := NewTableCache(8)
	lw, err := NewLevelWise(tp, []*pattern.Pattern{p})
	if err != nil {
		t.Skipf("levelwise unavailable on this pattern: %v", err)
	}
	first, err := c2.Build(tp, lw, p)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := c2.Build(tp, lw, p); again == first {
		t.Error("non-memoizable algorithm was cached")
	}
}

// TestTableCacheConcurrent is the race-mode test of the cache: many
// goroutines build overlapping keys; run with -race to check the
// synchronization (satellite of the parallel-engine PR).
func TestTableCacheConcurrent(t *testing.T) {
	tp := cacheTestTopo(t)
	p := pattern.WRF256()
	c := NewTableCache(32)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				seed := uint64(i%4) + 1 // overlapping keys across goroutines
				tbl, err := c.Build(tp, NewRandomNCAUp(tp, seed), p)
				if err != nil {
					errs <- err
					return
				}
				if len(tbl.Routes) != len(p.Flows) {
					errs <- fmt.Errorf("goroutine %d: truncated table", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRelabelFamilyConcurrentRoutes exercises the lazily-built
// balanced maps from many goroutines sharing one algorithm instance —
// the per-worker safety the parallel sweep engine relies on when a
// cached table's algorithm is reused. Run with -race.
func TestRelabelFamilyConcurrentRoutes(t *testing.T) {
	tp := cacheTestTopo(t)
	algo := NewRandomNCAUp(tp, 3)
	n := tp.Leaves()
	want := algo.Route(1, 200)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := (g*131 + i) % n
				d := (g*17 + i*7 + 1) % n
				_ = algo.Route(s, d)
			}
		}(g)
	}
	wg.Wait()
	if got := algo.Route(1, 200); !reflect.DeepEqual(got, want) {
		t.Errorf("route changed under concurrency: %v -> %v", want, got)
	}
}

// countingAlgo wraps an algorithm with a route-call counter so tests
// can observe how many times a table was actually computed.
type countingAlgo struct {
	Algorithm
	key   string
	calls *atomic.Int64
}

func (a countingAlgo) CacheKey() string { return a.key }

func (a countingAlgo) Route(s, d int) xgft.Route {
	a.calls.Add(1)
	return a.Algorithm.Route(s, d)
}

// TestTableCacheCoalesces checks the singleflight behaviour: many
// goroutines building the same cold key compute the table exactly
// once — the rest wait for the in-flight build instead of duplicating
// it. Run with -race.
func TestTableCacheCoalesces(t *testing.T) {
	tp := cacheTestTopo(t)
	p := pattern.WRF256()
	c := NewTableCache(8)
	var calls atomic.Int64
	algo := countingAlgo{Algorithm: NewDModK(tp), key: "counting", calls: &calls}

	const workers = 16
	var start, wg sync.WaitGroup
	start.Add(1)
	tables := make([]*Table, workers)
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			tables[g], errs[g] = c.Build(tp, algo, p)
		}(g)
	}
	start.Done()
	wg.Wait()
	for g := 0; g < workers; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if tables[g] != tables[0] {
			t.Fatalf("goroutine %d got a different table instance", g)
		}
	}
	if got := calls.Load(); got != int64(len(p.Flows)) {
		t.Fatalf("table computed %.1f times, want exactly once", float64(got)/float64(len(p.Flows)))
	}
	hits, misses := c.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	if hits+c.Coalesced() != workers-1 {
		t.Fatalf("hits (%d) + coalesced (%d) = %d, want %d", hits, c.Coalesced(), hits+c.Coalesced(), workers-1)
	}
}

// panicOnceAlgo panics on its first Route call and behaves normally
// afterwards, modelling a build blowing up mid-flight.
type panicOnceAlgo struct {
	Algorithm
	key   string
	calls *atomic.Int64
}

func (a panicOnceAlgo) CacheKey() string { return a.key }

func (a panicOnceAlgo) Route(s, d int) xgft.Route {
	if a.calls.Add(1) == 1 {
		panic("boom")
	}
	return a.Algorithm.Route(s, d)
}

// TestTableCacheBuildPanicUnwedges checks that a panicking build does
// not leave its key wedged: the panic propagates to the caller, and a
// retry of the same key computes instead of hanging on a dead
// in-flight entry.
func TestTableCacheBuildPanicUnwedges(t *testing.T) {
	tp := cacheTestTopo(t)
	p := pattern.Shift(tp.Leaves(), 1, 1)
	c := NewTableCache(8)
	var calls atomic.Int64
	algo := panicOnceAlgo{Algorithm: NewDModK(tp), key: "panic-once", calls: &calls}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate to the building caller")
			}
		}()
		c.Build(tp, algo, p)
	}()

	done := make(chan error, 1)
	go func() {
		tbl, err := c.Build(tp, algo, p)
		if err == nil && tbl == nil {
			err = fmt.Errorf("nil table with nil error")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("retry after panic: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry after panic hung on the wedged in-flight entry")
	}
}

// TestKeyPatternIsContent pins the key venus's crossbar memo stores
// reference runs under: equal patterns share it, and the same flows
// with other byte counts do not.
func TestKeyPatternIsContent(t *testing.T) {
	tp := cacheTestTopo(t)
	p := pattern.AllToAll(tp.Leaves(), 1)
	if KeyPattern(p) != KeyPattern(p.Clone()) || KeyPattern(p) == KeyPattern(pattern.AllToAll(tp.Leaves(), 2)) {
		t.Fatal("KeyPattern is not a function of pattern content")
	}
}

// TestMemoAlgorithmCoalesces is TestTableCacheCoalesces for the
// algorithm memo: goroutines asking for one cold key at once get one
// construction, and every one of them the same instance. The build is
// held open until every goroutine has arrived, so a memo that let each
// of them miss would build once per goroutine. Run with -race.
func TestMemoAlgorithmCoalesces(t *testing.T) {
	tp := cacheTestTopo(t)
	c := NewTableCache(8)
	const workers = 16
	var arrived, wg sync.WaitGroup
	arrived.Add(workers)
	var builds atomic.Int64
	build := func() Algorithm {
		builds.Add(1)
		arrived.Wait()
		return NewDModK(tp)
	}
	algos := make([]Algorithm, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			arrived.Done()
			algos[g] = c.MemoAlgorithm("gated", build)
		}(g)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d goroutines on one cold key built %d algorithms, want 1", workers, got)
	}
	for g := range algos {
		if algos[g] != algos[0] {
			t.Fatalf("goroutine %d got a different algorithm instance", g)
		}
	}
	if hits, misses := c.MemoStats(); misses != 1 || hits >= workers {
		t.Fatalf("MemoStats = %d hits / %d misses, want 1 miss and the rest hits or coalesced", hits, misses)
	}
}
