package experiments

import (
	"bytes"
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

func TestFigure5ParallelMatchesSequential(t *testing.T) {
	app := WRFApp()
	base := Options{Seeds: 4, W2Values: []int{16, 8}}
	seq := base
	seq.Parallelism = 1
	seqRows, err := Figure5(app, seq)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallelism = 8
	parRows, err := Figure5(app, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("parallel Figure5 differs:\nseq: %+v\npar: %+v", seqRows, parRows)
	}
}

func TestDeepTreeSweepParallelMatchesSequential(t *testing.T) {
	base := Options{Seeds: 3, MessageBytes: 8 * 1024}
	seq := base
	seq.Parallelism = 1
	seqRows, err := DeepTreeSweep(seq)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallelism = 8
	parRows, err := DeepTreeSweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Error("parallel DeepTreeSweep differs from sequential")
	}
}

func TestFigure4ParallelMatchesSequential(t *testing.T) {
	seqRes, err := Figure4(10, Options{Seeds: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := Figure4(10, Options{Seeds: 4, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Error("parallel Figure4 differs from sequential")
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
