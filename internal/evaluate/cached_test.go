package evaluate

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/trace"
	"repro/internal/xgft"
)

// countingEvaluator wraps a backend and counts how many evaluations
// actually reach it.
type countingEvaluator struct {
	Evaluator
	scores      atomic.Uint64
	scoreRoutes atomic.Uint64
}

func (c *countingEvaluator) Score(t *xgft.Topology, algo core.Algorithm, phases []*pattern.Pattern) (Result, error) {
	c.scores.Add(1)
	return c.Evaluator.Score(t, algo, phases)
}

func (c *countingEvaluator) ScoreRoutes(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route) (Result, error) {
	c.scoreRoutes.Add(1)
	return c.Evaluator.ScoreRoutes(t, p, routes)
}

// uncacheableAlgo hides an algorithm's CacheKey, making it anonymous
// to every memoization layer.
type uncacheableAlgo struct{ core.Algorithm }

func TestCachedEvaluatorMemoizes(t *testing.T) {
	tp := mustTree(t, 4, 4, 2)
	inner := &countingEvaluator{Evaluator: NewAnalytic(nil)}
	c := NewCached(inner, 16)
	if c.Name() != Analytic {
		t.Errorf("Name() = %q, want the wrapped backend's name", c.Name())
	}
	algo := core.NewDModK(tp)
	phases := []*pattern.Pattern{pattern.KeyedRandomPermutation(tp.Leaves(), 4096, 1)}

	first, err := c.Score(tp, algo, phases)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Score(tp, algo, phases)
	if err != nil {
		t.Fatal(err)
	}
	if first.Slowdown != second.Slowdown {
		t.Errorf("cached result %v differs from computed %v", second.Slowdown, first.Slowdown)
	}
	if got := inner.scores.Load(); got != 1 {
		t.Errorf("inner evaluated %d times, want 1", got)
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("Stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}

	// A pattern with the same fingerprint inputs built independently
	// still hits: keys are content, not pointers.
	clone := []*pattern.Pattern{phases[0].Clone()}
	if _, err := c.Score(tp, algo, clone); err != nil {
		t.Fatal(err)
	}
	if got := inner.scores.Load(); got != 1 {
		t.Errorf("content-identical phases recomputed (inner ran %d times)", got)
	}

	// Uncacheable algorithms bypass memoization entirely.
	for i := 0; i < 2; i++ {
		if _, err := c.Score(tp, uncacheableAlgo{algo}, phases); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.scores.Load(); got != 3 {
		t.Errorf("uncacheable algorithm was memoized (inner ran %d times, want 3)", got)
	}

	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len after Purge = %d", c.Len())
	}
}

func TestCachedEvaluatorScoreRoutes(t *testing.T) {
	tp := mustTree(t, 4, 4, 2)
	inner := &countingEvaluator{Evaluator: NewAnalytic(nil)}
	c := NewCached(inner, 16)
	p := pattern.KeyedRandomPermutation(tp.Leaves(), 4096, 2)
	tbl, err := core.BuildTable(tp, core.NewDModK(tp), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.ScoreRoutes(tp, p, tbl.Routes); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.scoreRoutes.Load(); got != 1 {
		t.Errorf("inner evaluated %d times, want 1", got)
	}

	// A different route set over the same pattern is a different key.
	tbl2, err := core.BuildTable(tp, core.NewRandomNCAUp(tp, 5), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScoreRoutes(tp, p, tbl2.Routes); err != nil {
		t.Fatal(err)
	}
	if got := inner.scoreRoutes.Load(); got != 2 {
		t.Errorf("distinct route set served from cache (inner ran %d times, want 2)", got)
	}
}

func TestCachedEvaluatorPassThrough(t *testing.T) {
	tp := mustTree(t, 4, 4, 2)
	inner := &countingEvaluator{Evaluator: NewAnalytic(nil)}
	c := NewCached(inner, 0)
	tr := trace.New(trace.Config{SampleNum: 1, SampleDen: 1, RecorderCap: 16})
	c.Trace(tr)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	phases := []*pattern.Pattern{pattern.KeyedRandomPermutation(tp.Leaves(), 4096, 3)}
	for i := 0; i < 2; i++ {
		if _, err := c.Score(tp, core.NewDModK(tp), phases); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.scores.Load(); got != 2 {
		t.Errorf("pass-through cache memoized (inner ran %d times, want 2)", got)
	}
	tbl, err := core.BuildTable(tp, core.NewDModK(tp), phases[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScoreRoutes(tp, phases[0], tbl.Routes); err != nil {
		t.Fatal(err)
	}
	// A pass-through cache is a plain delegation: no evaluate.score
	// span, no latency observation, no counts.
	if got := tr.SpanCount(); got != 0 {
		t.Errorf("pass-through cache recorded %d spans: %+v", got, tr.Spans(0))
	}
	if got := reg.Histogram(metricScoreNS, "").Count(); got != 0 {
		t.Errorf("pass-through cache observed %d score latencies", got)
	}
	if hits, misses, coalesced := c.Stats(); hits+misses+coalesced != 0 || c.Len() != 0 {
		t.Errorf("pass-through cache counted %d/%d/%d and retains %d", hits, misses, coalesced, c.Len())
	}
}

func TestCachedEvaluatorEviction(t *testing.T) {
	tp := mustTree(t, 4, 4, 2)
	c := NewCached(NewAnalytic(nil), 2)
	algo := core.NewDModK(tp)
	for seed := uint64(1); seed <= 4; seed++ {
		p := []*pattern.Pattern{pattern.KeyedRandomPermutation(tp.Leaves(), 4096, seed)}
		if _, err := c.Score(tp, algo, p); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d after FIFO eviction at capacity 2", c.Len())
	}
}

// TestCachedEvaluatorRace drives concurrent sweep-style scoring — many
// goroutines, overlapping keys, both entry points — under the race
// detector; coalescing plus hits must account for every duplicated
// evaluation.
func TestCachedEvaluatorRace(t *testing.T) {
	tp := mustTree(t, 4, 4, 2)
	inner := &countingEvaluator{Evaluator: NewAnalytic(core.NewTableCache(32))}
	c := NewCached(inner, 64)
	const workers = 16
	const perWorker = 20
	algos := []core.Algorithm{
		core.NewDModK(tp),
		core.NewSModK(tp),
		core.NewRandomNCAUp(tp, 1),
	}
	pats := make([]*pattern.Pattern, 4)
	tables := make([][]xgft.Route, len(pats))
	for i := range pats {
		pats[i] = pattern.KeyedRandomPermutation(tp.Leaves(), 4096, uint64(i)+1)
		tbl, err := core.BuildTable(tp, algos[0], pats[i])
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tbl.Routes
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := (w + i) % len(pats)
				if i%2 == 0 {
					if _, err := c.Score(tp, algos[(w+i)%len(algos)], []*pattern.Pattern{pats[k]}); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := c.ScoreRoutes(tp, pats[k], tables[k]); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	distinct := uint64(len(algos)*len(pats) + len(pats))
	if got := inner.scores.Load() + inner.scoreRoutes.Load(); got != distinct {
		t.Errorf("inner evaluated %d times for %d distinct keys", got, distinct)
	}
	hits, misses, coalesced := c.Stats()
	if misses != distinct {
		t.Errorf("misses = %d, want %d", misses, distinct)
	}
	if hits+misses+coalesced != workers*perWorker {
		t.Errorf("hits %d + misses %d + coalesced %d != %d calls", hits, misses, coalesced, workers*perWorker)
	}
}
