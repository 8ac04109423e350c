package experiments

import (
	"bytes"
	"cmp"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestFigure2ParallelByteIdentical is the engine's core contract: a
// parallel sweep renders byte-identically to the sequential one.
func TestFigure2ParallelByteIdentical(t *testing.T) {
	app := CGApp()
	base := Options{Seeds: 6, W2Values: []int{16, 9, 2}}

	seq := base
	seq.Parallelism = 1
	seqRows, err := Figure2(app, seq)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallelism = 8
	parRows, err := Figure2(app, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("parallel rows differ from sequential:\nseq: %+v\npar: %+v", seqRows, parRows)
	}
	var seqBuf, parBuf bytes.Buffer
	WriteFigure2(&seqBuf, app, seqRows)
	WriteFigure2(&parBuf, app, parRows)
	if !bytes.Equal(seqBuf.Bytes(), parBuf.Bytes()) {
		t.Error("rendered Figure 2 output differs between sequential and parallel runs")
	}
}

// sameAtAnyParallelism runs a sweep at Parallelism 1 and 8 and
// requires equal results.
func sameAtAnyParallelism[T any](t *testing.T, opt Options, sweep func(Options) (T, error)) T {
	t.Helper()
	var got [2]T
	for i, par := range []int{1, 8} {
		opt.Parallelism = par
		var err error
		if got[i], err = sweep(opt); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("parallel run differs from sequential:\nseq: %+v\npar: %+v", got[0], got[1])
	}
	return got[0]
}

func TestFigure5ParallelMatchesSequential(t *testing.T) {
	sameAtAnyParallelism(t, Options{Seeds: 4, W2Values: []int{16, 8}}, func(o Options) ([]Fig5Row, error) { return Figure5(WRFApp(), o) })
}

func TestDeepTreeSweepParallelMatchesSequential(t *testing.T) {
	sameAtAnyParallelism(t, Options{Seeds: 3, MessageBytes: 8 * 1024}, DeepTreeSweep)
}

func TestFigure4ParallelMatchesSequential(t *testing.T) {
	sameAtAnyParallelism(t, Options{Seeds: 4}, func(o Options) (*Fig4Result, error) { return Figure4(10, o) })
}

// batchRows is every grid sweep's result, declared on one batch.
type batchRows struct {
	Fig2     []Fig2Row
	Fig5     []Fig5Row
	Fig4     *Fig4Result
	Deep     []DeepRow
	Ablation *AblationRow
	Faults   []FaultRow
	Fidelity []FidelityRow
	Adaptive []AdaptiveRow
}

// TestBatchParallelMatchesSequential scores the eight grid sweeps on
// one batch: the rows do not depend on parallelism, and each sweep's
// rows equal the sweep's run alone, so sharing cells across sweeps
// changes no value.
func TestBatchParallelMatchesSequential(t *testing.T) {
	opt := Options{Seeds: 2, MessageBytes: 2048, W2Values: []int{16, 7}}
	app := CGApp()
	together := sameAtAnyParallelism(t, opt, func(o Options) (batchRows, error) {
		b := NewBatch(o)
		fig2, err2 := b.Figure2(app)
		fig5, err5 := b.Figure5(app)
		fig4, err4 := b.Figure4(10)
		deep, errD := b.DeepTreeSweep()
		abl, errA := b.BalanceAblation(10)
		faults, errF := b.FaultSweep(app)
		fid, errV := b.FidelitySweep()
		ada, errS := b.AdaptiveComparison()
		if err := cmp.Or(err2, err5, err4, errD, errA, errF, errV, errS); err != nil {
			return batchRows{}, err
		}
		if err := b.Run(); err != nil {
			return batchRows{}, err
		}
		return batchRows{fig2(), fig5(), fig4(), deep(), abl(), faults(), fid(), ada()}, nil
	})
	var alone batchRows
	var errs [8]error
	alone.Fig2, errs[0] = Figure2(app, opt)
	alone.Fig5, errs[1] = Figure5(app, opt)
	alone.Fig4, errs[2] = Figure4(10, opt)
	alone.Deep, errs[3] = DeepTreeSweep(opt)
	alone.Ablation, errs[4] = BalanceAblation(10, opt)
	alone.Faults, errs[5] = FaultSweep(app, opt)
	alone.Fidelity, errs[6] = FidelitySweep(opt)
	alone.Adaptive, errs[7] = AdaptiveComparison(opt)
	if err := cmp.Or(errs[:]...); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(together, alone) {
		t.Errorf("sweeps sharing one batch differ from the sweeps run alone:\nbatch: %+v\nalone: %+v", together, alone)
	}
}

// TestGridSharesExactlyItsKeys holds the grid to its cell key. Under
// both engines Fig. 2's rows are the projection of Fig. 5's, and
// declaring the two together scores Fig. 5's cells and no more. Cells
// whose keys differ only in byte size or in failed wires are scored
// apart.
func TestGridSharesExactlyItsKeys(t *testing.T) {
	for _, opt := range []Options{
		{Seeds: 3, W2Values: []int{16, 7}},
		{Engine: Simulated, Seeds: 2, MessageBytes: 2048, W2Values: []int{16, 7}},
	} {
		app := CGApp()
		fig2, err := Figure2(app, opt)
		if err != nil {
			t.Fatal(err)
		}
		fig5, err := Figure5(app, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range fig5 {
			want := Fig2Row{W2: r.W2, Random: r.Random.Median, SModK: r.SModK, DModK: r.DModK, Colored: r.Colored, Crossbar: 1}
			if fig2[i] != want {
				t.Errorf("%s: Fig. 2 row %+v, Fig. 5 projects to %+v", opt.Engine, fig2[i], want)
			}
		}
		total := 0
		opt.Progress = func(_, n int) { total = n }
		b := NewBatch(opt)
		if _, err := b.Figure2(app); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Figure5(app); err != nil {
			t.Fatal(err)
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		if want := len(opt.W2Values) * (3 + 3*opt.Seeds); total != want {
			t.Errorf("%s: Fig. 2 + Fig. 5 scored %d cells, Fig. 5 alone has %d", opt.Engine, total, want)
		}
	}

	wrf := cellKey{topo: slimmed(16), wl: workload{name: "WRF-256", bytes: 2048}, scheme: "d-mod-k", measure: measureReplay}
	faulty := cellKey{topo: slimmed(16), wl: workload{name: "WRF-256", bytes: 2048}, scheme: "d-mod-k", seed: 1, measure: measureDegraded}
	for _, tc := range []struct {
		name string
		a    cellKey
		edit func(*cellKey)
	}{
		{"byte size", wrf, func(k *cellKey) { k.wl.bytes = 8192 }},
		{"failed wires", faulty, func(k *cellKey) { k.failed = 64 }},
	} {
		b := NewBatch(Options{})
		other := tc.a
		tc.edit(&other)
		i, j := b.add(tc.a), b.add(other)
		if b.add(tc.a) != i || i == j {
			t.Fatalf("%s: cells %d, %d: equal keys must share a cell and differing ones must not", tc.name, i, j)
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(b.value(i), b.value(j)) {
			t.Errorf("%s: both cells read %v; the field the keys differ in does not reach the value", tc.name, b.value(i))
		}
	}
}

// TestCachedMatchesUncached pins the cache's correctness contract: an
// explicit Options.Cache serving tables must not change any figure
// value the zero Options (build, score, drop) produce.
func TestCachedMatchesUncached(t *testing.T) {
	app := CGApp()
	base := Options{Seeds: 4, W2Values: []int{16, 6}, Parallelism: 8}

	coldRows, err := Figure2(app, base)
	if err != nil {
		t.Fatal(err)
	}
	warm := base
	warm.Cache = core.NewTableCache(1024)
	// Prime the cache with Figure5 (shares every fixed and Random
	// cell with Figure2), then re-run Figure2 against it.
	if _, err := Figure5(app, warm); err != nil {
		t.Fatal(err)
	}
	warmRows, err := Figure2(app, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldRows, warmRows) {
		t.Errorf("cached rows differ from uncached:\ncold: %+v\nwarm: %+v", coldRows, warmRows)
	}
	if hits, _ := warm.Cache.Stats(); hits == 0 {
		t.Error("cross-figure run produced no cache hits")
	}
}

// TestFigureSweepsRetainNothing holds the sweeps to build-score-drop:
// with the zero Options.Cache, once Figure2 and Figure5 have returned
// the heap is back at its pre-run reading. The two runs build about
// 80 (topology, scheme) table sets of 5 CG phases, some 3 MB of
// routes; a cache under the sweeps that pinned them would read that
// much higher, the margin is a tenth of it.
func TestFigureSweepsRetainNothing(t *testing.T) {
	app := CGApp()
	opt := Options{Seeds: 12, W2Values: []int{16, 10}, Parallelism: 2}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle frees what the first one's finalizers released
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	if _, err := Figure2(app, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure5(app, opt); err != nil {
		t.Fatal(err)
	}
	const margin = 300 << 10
	if after := heap(); after > before+margin {
		t.Errorf("heap grew %d KB across Figure2+Figure5 (margin %d KB): something retains the tables", (after-before)>>10, margin>>10)
	}
}

func TestProgressReporting(t *testing.T) {
	var calls []int
	lastTotal := 0
	opt := Options{
		Seeds:       3,
		W2Values:    []int{16, 4},
		Parallelism: 8,
		Progress: func(done, total int) {
			calls = append(calls, done)
			lastTotal = total
		},
	}
	if _, err := Figure2(CGApp(), opt); err != nil {
		t.Fatal(err)
	}
	want := 2 * (3 + 3) // two topologies x (3 fixed + 3 seeds)
	if lastTotal != want {
		t.Errorf("total = %d, want %d", lastTotal, want)
	}
	if len(calls) != want {
		t.Fatalf("progress called %d times, want %d", len(calls), want)
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("progress out of order: call %d reported done=%d", i, done)
		}
	}
}

func TestRunCellsDeterministicError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	// Whatever the scheduling, the lowest-indexed error wins.
	for trial := 0; trial < 20; trial++ {
		err := runCells(16, 8, nil, func(i int) error {
			switch i {
			case 3:
				return errLow
			case 12:
				return errHigh
			default:
				return nil
			}
		})
		if err != errLow {
			t.Fatalf("trial %d: got %v, want lowest-indexed error", trial, err)
		}
	}
}
