package memo

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counting returns a describe func that counts its calls.
func counting(calls *atomic.Int64) func(int) string {
	return func(k int) string {
		calls.Add(1)
		return fmt.Sprintf("test: computation %d", k)
	}
}

// value returns a compute func yielding v and counting its runs.
func value(v string, runs *atomic.Int64) func() (string, error) {
	return func() (string, error) {
		runs.Add(1)
		return v, nil
	}
}

// awaitParkedInGet returns once n goroutines are blocked in Get on
// another caller's computation. A caller that has merely been started
// may still reach Get after that computation has finished and take a
// hit, so a test of coalescing holds its computation open until the
// waiters are parked.
func awaitParkedInGet(n int) {
	buf := make([]byte, 1<<16)
	for {
		m := runtime.Stack(buf, true)
		if m == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		parked := 0
		for _, g := range strings.Split(string(buf[:m]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, ".(*Cache[...]).Get(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		runtime.Gosched()
	}
}

func mustGet(t *testing.T, c *Cache[int, string], key int, compute func() (string, error), want Outcome) string {
	t.Helper()
	v, got, err := c.Get(key, compute)
	if err != nil {
		t.Fatalf("Get(%d): %v", key, err)
	}
	if got != want {
		t.Fatalf("Get(%d) outcome %d, want %d", key, got, want)
	}
	return v
}

func TestCountsAndOutcomes(t *testing.T) {
	var described, runs atomic.Int64
	c := New[int, string](4, counting(&described))
	if v := mustGet(t, c, 1, value("one", &runs), Miss); v != "one" {
		t.Fatalf("miss returned %q", v)
	}
	if v := mustGet(t, c, 1, value("other", &runs), Hit); v != "one" {
		t.Fatalf("hit returned %q, want the retained %q", v, "one")
	}
	mustGet(t, c, 2, value("two", &runs), Miss)
	if hits, misses, coalesced := c.Stats(); hits != 1 || misses != 2 || coalesced != 0 {
		t.Errorf("Stats = %d/%d/%d, want 1/2/0", hits, misses, coalesced)
	}
	if runs.Load() != 2 || c.Len() != 2 {
		t.Errorf("%d computations, %d retained; want 2, 2", runs.Load(), c.Len())
	}
	if described.Load() != 0 {
		t.Errorf("describe called %d times without a panic", described.Load())
	}
}

// TestCoalesces holds the first computation open until every other
// caller is waiting on it: one computes, the rest wait for its result.
func TestCoalesces(t *testing.T) {
	var described, runs atomic.Int64
	c := New[int, string](4, counting(&described))
	const workers = 8
	var wg sync.WaitGroup
	compute := func() (string, error) {
		runs.Add(1)
		awaitParkedInGet(workers - 1)
		return "shared", nil
	}
	outcomes := make([]Outcome, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, o, err := c.Get(7, compute)
			if err != nil || v != "shared" {
				t.Errorf("goroutine %d: %q, %v", g, v, err)
			}
			outcomes[g] = o
		}(g)
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("%d computations for one key, want 1", runs.Load())
	}
	var tally [3]uint64
	for _, o := range outcomes {
		tally[o]++
	}
	hits, misses, coalesced := c.Stats()
	if tally != [3]uint64{misses, hits, coalesced} || misses != 1 || coalesced == 0 {
		t.Errorf("outcomes miss/hit/coalesced %v, Stats %d/%d/%d; want one miss and the waiters coalesced", tally, misses, hits, coalesced)
	}
}

// TestFIFOEviction: at capacity the oldest retained key goes first,
// and a hit does not make a key younger.
func TestFIFOEviction(t *testing.T) {
	var described, runs atomic.Int64
	c := New[int, string](2, counting(&described))
	mustGet(t, c, 1, value("1", &runs), Miss)
	mustGet(t, c, 2, value("2", &runs), Miss)
	mustGet(t, c, 1, value("1", &runs), Hit)
	mustGet(t, c, 3, value("3", &runs), Miss) // evicts 1, the oldest
	mustGet(t, c, 2, value("2", &runs), Hit)
	mustGet(t, c, 3, value("3", &runs), Hit)
	mustGet(t, c, 1, value("1", &runs), Miss) // evicts 2
	mustGet(t, c, 2, value("2", &runs), Miss) // evicts 3
	mustGet(t, c, 1, value("1", &runs), Hit)
	if c.Len() != 2 {
		t.Errorf("Len = %d at capacity 2", c.Len())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len = %d after Purge", c.Len())
	}
	mustGet(t, c, 1, value("1", &runs), Miss)
	if hits, misses, _ := c.Stats(); hits != 4 || misses != 6 {
		t.Errorf("Stats = %d hits / %d misses after Purge, want the counters kept: 4 / 6", hits, misses)
	}
}

func TestPassThrough(t *testing.T) {
	var described, runs atomic.Int64
	for _, capacity := range []int{0, -1} {
		if c := New[int, string](capacity, counting(&described)); c != nil {
			t.Fatalf("New(%d) = %p, want the nil pass-through memo", capacity, c)
		}
	}
	var c *Cache[int, string]
	for i := 0; i < 3; i++ {
		mustGet(t, c, 1, value("1", &runs), Miss)
	}
	if _, o, err := c.Get(2, fail); !errors.Is(err, errCompute) || o != Miss {
		t.Errorf("pass-through error call: outcome %d, err %v; want a miss with the compute error", o, err)
	}
	c.Purge()
	if hits, misses, coalesced := c.Stats(); runs.Load() != 3 || hits+misses+coalesced != 0 || c.Len() != 0 {
		t.Errorf("pass-through: %d runs, counts %d/%d/%d, %d retained; want 3 runs and nothing else", runs.Load(), hits, misses, coalesced, c.Len())
	}
}

var errCompute = errors.New("compute failed")

func fail() (string, error) { return "", errCompute }

func TestErrorNotRetained(t *testing.T) {
	var described, runs atomic.Int64
	c := New[int, string](4, counting(&described))
	for i := 0; i < 2; i++ {
		if _, o, err := c.Get(1, fail); !errors.Is(err, errCompute) || o != Miss {
			t.Fatalf("call %d: outcome %d, err %v; want a miss with the compute error", i, o, err)
		}
	}
	mustGet(t, c, 1, value("1", &runs), Miss)
	mustGet(t, c, 1, value("1", &runs), Hit)
	if _, misses, _ := c.Stats(); misses != 3 || c.Len() != 1 {
		t.Errorf("%d misses, %d retained; want 3, 1", misses, c.Len())
	}
}

// TestPanicUnwedges: a panicking computation reaches its caller, its
// waiters get an error describe names instead of hanging, and the key
// is computed afresh afterwards.
func TestPanicUnwedges(t *testing.T) {
	var described, runs atomic.Int64
	c := New[int, string](4, counting(&described))
	const waiters = 4
	var wg sync.WaitGroup
	started := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Get(9, func() (string, error) {
			close(started)
			awaitParkedInGet(waiters)
			panic("boom")
		})
	}()
	// The panicking call owns the key before the waiters arrive.
	<-started
	errs := make([]error, waiters)
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, _, errs[g] = c.Get(9, value("late", &runs))
		}(g)
	}
	if r := <-panicked; r != "boom" {
		t.Fatalf("computing caller recovered %v, want the panic", r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters hung on the panicked computation")
	}
	coalescedErrs := 0
	for g, err := range errs {
		if err == nil {
			continue // arrived after the key was released and computed it
		}
		if !strings.Contains(err.Error(), "test: computation 9 panicked") {
			t.Errorf("waiter %d: %v, want describe's message", g, err)
		}
		coalescedErrs++
	}
	if _, _, coalesced := c.Stats(); coalescedErrs == 0 || uint64(coalescedErrs) != coalesced {
		t.Errorf("%d waiters got the panic error, %d coalesced; want every coalesced waiter to", coalescedErrs, coalesced)
	}
	if described.Load() != 1 {
		t.Errorf("describe called %d times for one panic", described.Load())
	}
	if v, _, err := c.Get(9, value("retry", &runs)); err != nil || (v != "retry" && v != "late") {
		t.Errorf("retry after panic: %q, %v", v, err)
	}
}
