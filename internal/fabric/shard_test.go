package fabric

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/trace"
	"repro/internal/xgft"
)

// shardFabric is a telemetry fabric on XGFT(2;8,8;1,4) with leaf 3 cut
// off (its only up-link failed), so every class of the per-pair rule —
// route, self, out of range, unreachable — turns up in a keyed batch.
func shardFabric(t *testing.T) *Fabric {
	t.Helper()
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.FailLink(0, 3, 0); err != nil {
		t.Fatal(err)
	}
	return f
}

// cell reads the matrix cell itself, without the fold every exported
// reader starts with.
func (t *Telemetry) cell(src, dst int) uint64 { return atomic.LoadUint64(&t.cells[src*t.n+dst]) }

// TestShardCountsAreExact: six goroutines push keyed batches through
// ResolveWire, ResolveBatchPacked and Resolve — self, out-of-range and
// unreachable pairs mixed in — while the test goroutine cuts
// snapshot(reset) windows as fast as it can. The windows plus one final
// snapshot hold, per pair, exactly the resolved non-self pairs sent: a
// count is neither lost between a shard and the matrix nor seen in two
// windows. Run with -race.
func TestShardCountsAreExact(t *testing.T) {
	f := shardFabric(t)
	tel, gen, n := f.Telemetry(), f.Generation(), f.Topology().Leaves()
	const (
		workers = 6
		rounds  = 150
		batch   = 96
	)
	// What worker w sends in round r, with the wire's view of a negative
	// endpoint (it has none: out of range on the other side).
	sent := func(w, r int) [][2]int {
		pairs := packedBatchPairs(n, batch, hashutil.Mix(0x5ad, uint64(w), uint64(r)))
		if w%3 == 0 {
			for i := range pairs {
				if pairs[i][1] < 0 {
					pairs[i][1] = n - pairs[i][1]
				}
			}
		}
		return pairs
	}
	var wg sync.WaitGroup
	var done atomic.Int32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer done.Add(1)
			words := make([]uint64, batch)
			var reply []byte
			for r := 0; r < rounds; r++ {
				pairs := sent(w, r)
				switch w % 3 {
				case 0:
					reply, _, _ = f.ResolveWire(trace.SpanContext{}, wirePairs(pairs), reply[:0])
				case 1:
					f.ResolveBatchPacked(pairs, words)
				default:
					for _, p := range pairs {
						f.Resolve(p[0], p[1])
					}
				}
			}
		}(w)
	}
	got := make(map[[2]int]int64)
	windows := 0
	cut := func() {
		for _, fl := range tel.snapshot(true).Flows {
			got[[2]int{fl.Src, fl.Dst}] += fl.Bytes
		}
		windows++
	}
	for done.Load() < workers {
		cut()
	}
	wg.Wait()
	cut()
	if left := tel.Total(); left != 0 {
		t.Errorf("%d counts left after the final window", left)
	}
	want := make(map[[2]int]int64)
	var total int64
	for w := 0; w < workers; w++ {
		for r := 0; r < rounds; r++ {
			for _, p := range sent(w, r) {
				if word := gen.lookup(uint64(p[0]), uint64(p[1])); word != PackedUnreachable && word != 0 {
					want[p]++
					total++
				}
			}
		}
	}
	if total == 0 || len(want) < n {
		t.Fatalf("the schedule counts %d resolves over %d pairs: too few to mean anything", total, len(want))
	}
	for p, c := range want {
		if got[p] != c {
			t.Errorf("pair %v: %d windows hold %d counts, %d were sent", p, windows, got[p], c)
		}
	}
	if len(got) != len(want) {
		t.Errorf("windows hold %d pairs, %d were sent", len(got), len(want))
	}
	if kept := tel.keptShards(); kept < 1 || kept > len(tel.shards) {
		t.Errorf("%d shards kept, want 1..%d", kept, len(tel.shards))
	}
}

// TestShardFoldsBeforeWrap: a shard's counts are 32 bits wide, so
// release folds it unasked once it has taken 2³¹ adds — driven here by
// setting the shard's add counter, and one cell to the 2³¹ those adds
// could all have landed on, rather than by 2³¹ resolves. Below the
// threshold nothing folds until a reader asks.
func TestShardFoldsBeforeWrap(t *testing.T) {
	f := shardFabric(t)
	tel := f.Telemetry()
	pairs := [][2]int{{0, 9}, {0, 9}, {1, 17}, {2, 2}, {40, 7}, {3, 5}} // (2,2) self, (3,5) unreachable: 5 resolve, 4 count
	words := make([]uint64, len(pairs))
	resolve := func() {
		t.Helper()
		if resolved, _ := f.ResolveBatchPacked(pairs, words); resolved != 5 {
			t.Fatalf("resolved %d of the probe batch, want 5", resolved)
		}
	}
	resolve()
	sh := tel.shards[0].Load()
	if sh == nil || sh.adds != 5 || sh.counts[0*tel.n+9] != 2 {
		t.Fatalf("after one batch the first shard holds %+v, want 5 adds and 2 counts of (0,9)", sh)
	}
	if tel.cell(0, 9) != 0 || tel.folds.Load() != 0 {
		t.Fatalf("a batch below the threshold reached the matrix without a reader: cell %d, %d folds", tel.cell(0, 9), tel.folds.Load())
	}

	sh.adds = foldAfter - 6
	sh.counts[0*tel.n+9] += 1 << 31
	resolve() // foldAfter - 1 adds: still private
	if sh.adds != foldAfter-1 || tel.cell(0, 9) != 0 {
		t.Fatalf("one add short of the threshold: %d adds held, cell %d, want %d and 0", sh.adds, tel.cell(0, 9), uint64(foldAfter-1))
	}
	resolve() // past it: release folds
	if sh.adds != 0 || tel.folds.Load() != 1 || tel.foldedCells.Load() != 3 {
		t.Fatalf("past the threshold: %d adds held, %d folds of %d cells, want 0, 1 and 3", sh.adds, tel.folds.Load(), tel.foldedCells.Load())
	}
	for _, c := range []struct {
		src, dst int
		want     uint64
	}{{0, 9, 1<<31 + 6}, {1, 17, 3}, {40, 7, 3}, {2, 2, 0}, {3, 5, 0}} {
		if got := tel.cell(c.src, c.dst); got != c.want {
			t.Errorf("matrix cell (%d,%d) = %d after the fold, want %d", c.src, c.dst, got, c.want)
		}
	}
	for i, c := range sh.counts {
		if c != 0 {
			t.Fatalf("folded shard still holds %d at cell %d", c, i)
		}
	}
	for i, m := range sh.dirty {
		if m != 0 {
			t.Fatalf("folded shard still marks line %d dirty", i)
		}
	}
}

// TestShardFreeListBounded: more passes at once than GOMAXPROCS — each
// holding its shard, as a pass preempted mid-batch does — leave at most
// GOMAXPROCS shards behind; the passes beyond that counted into spares,
// which were folded the moment they were released, and no count is lost
// either way.
func TestShardFreeListBounded(t *testing.T) {
	f := shardFabric(t)
	tel := f.Telemetry()
	keep, n := len(tel.shards), tel.n
	held := make([]*countShard, keep+3)
	own := make(map[[2]int]uint64) // each pass counts a pair of its own, and all count (20,30)
	for i := range held {
		held[i] = tel.acquire()
		for _, other := range held[:i] {
			if other == held[i] {
				t.Fatalf("pass %d was handed a shard another pass holds", i)
			}
		}
		held[i].add(i%n, (i+1)%n)
		own[[2]int{i % n, (i + 1) % n}]++
		held[i].add(20, 30)
	}
	own[[2]int{20, 30}] += uint64(len(held))
	if kept := tel.keptShards(); kept != keep {
		t.Fatalf("%d passes at once keep %d shards, want %d", len(held), kept, keep)
	}
	for i, sh := range held {
		if spare := i >= keep; sh.spare != spare {
			t.Errorf("pass %d: spare = %v, want %v", i, sh.spare, spare)
		}
		tel.release(sh, 2)
	}
	// The spares are in the matrix already; the kept shards wait for a
	// reader.
	if got := tel.cell(20, 30); got != 3 {
		t.Errorf("three spares released: matrix cell (20,30) = %d, want 3", got)
	}
	for p, want := range own {
		if got := tel.Count(p[0], p[1]); got != want {
			t.Errorf("count%v = %d, want %d", p, got, want)
		}
	}
	if total, want := tel.Total(), uint64(2*len(held)); total != want {
		t.Errorf("total %d, want %d", total, want)
	}
	if kept := tel.keptShards(); kept != keep {
		t.Errorf("%d shards kept after release, want %d", kept, keep)
	}
	// Every kept shard is free again: the next keep passes allocate
	// nothing.
	for i := 0; i < keep; i++ {
		if sh := tel.acquire(); sh.spare {
			t.Errorf("pass %d after release was handed a spare", i)
		}
	}
}

// TestCountedDecisionsMatchDeclared runs the churn_mixed-shaped schedule
// — BenchmarkChurnCycle's feed → Optimize(Reset) → FailLink → Heal, 50
// cycles, three seeds, with a keyed batch of every pair class through
// the wire form, a few single resolves and a probe under the fault mixed
// in — on two fabrics. One counts the traffic on its resolve path, in
// shards. The other resolves nothing: the test keeps a map of counts by
// the per-pair rule and declares each window to it with RecordN before
// the pass. Both must report the same OptimizeResult chain, so what the
// shards hand Optimize is what was resolved, window by window.
func TestCountedDecisionsMatchDeclared(t *testing.T) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 10})
	n := tp.Leaves()
	for _, seed := range []uint64{7, 23, 4242} {
		mk := func() *Fabric {
			f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		counted, declared := mk(), mk()
		feeds := churnFeeds(n, seed)
		tally := make(map[[2]int]uint64)
		words := make([]uint64, n)
		var reply []byte
		// sent resolves pairs on the counted fabric through one form and
		// tallies what the rule says it counted.
		sent := func(form int, pairs [][2]int) {
			gen := counted.Generation()
			switch form {
			case 0:
				counted.ResolveBatchPacked(pairs, words[:len(pairs)])
			case 1:
				reply, _, _ = counted.ResolveWire(trace.SpanContext{}, wirePairs(pairs), reply[:0])
			default:
				for _, p := range pairs {
					counted.Resolve(p[0], p[1])
				}
			}
			for _, p := range pairs {
				if word := gen.lookup(uint64(p[0]), uint64(p[1])); word != PackedUnreachable && word != 0 {
					tally[p]++
				}
			}
		}
		swaps := 0
		for c := 0; c < 50; c++ {
			feed := feeds[c%len(feeds)]
			sent(0, feed)
			mixed := packedBatchPairs(n, 64, hashutil.Mix(seed, uint64(c)))
			for i := range mixed {
				if mixed[i][1] < 0 {
					mixed[i][1] = n - mixed[i][1]
				}
			}
			sent(1, mixed)
			sent(2, feed[:4])

			window := make([][2]int, 0, len(tally))
			for p := range tally {
				window = append(window, p)
			}
			slices.SortFunc(window, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
			for _, p := range window {
				declared.Telemetry().RecordN(p[0], p[1], tally[p])
			}
			clear(tally)

			cfg := OptimizeConfig{Threshold: 0.05, Reset: true}
			got, err := counted.Optimize(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := declared.Optimize(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*OptimizeResult{&got, &want} {
				r.Stats.BuildTime, r.Stats.VerifyTime = 0, 0
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d cycle %d: counted pass\n%+v\ndeclared pass\n%+v", seed, c, got, want)
			}
			if got.Swapped {
				swaps++
			}
			for _, f := range []*Fabric{counted, declared} {
				if _, err := f.FailLink(1, c%16, c/16%10); err != nil {
					t.Fatal(err)
				}
			}
			sent(0, feed[:32]) // counted under the fault, into the next window
			for _, f := range []*Fabric{counted, declared} {
				if _, err := f.Heal(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if swaps == 0 {
			t.Errorf("seed %d: no pass swapped; the schedule decides nothing", seed)
		}
	}
}

// TestShardMetricsScraped: the shard count and the fold's work are
// readable from the registry at scrape time, reading them folds nothing,
// and a fabric without telemetry registers none of the three.
func TestShardMetricsScraped(t *testing.T) {
	f, reg, _ := observedFabric(t, true)
	want := func(when string, shards, folds, cells float64) {
		t.Helper()
		snap := reg.Snapshot()
		got := [3]float64{snap["fabric_telemetry_shards"], snap["fabric_telemetry_folds_total"], snap["fabric_telemetry_folded_cells_total"]}
		if got != [3]float64{shards, folds, cells} {
			t.Errorf("%s: shards, folds, folded cells = %v, want [%v %v %v]", when, got, shards, folds, cells)
		}
	}
	want("before any resolve", 0, 0, 0)
	f.ResolveBatchPacked([][2]int{{0, 9}, {0, 9}, {1, 17}, {4, 4}}, make([]uint64, 4))
	want("after a batch, before a reader", 1, 0, 0)
	if got := f.Telemetry().Total(); got != 3 {
		t.Fatalf("total %d, want 3", got)
	}
	want("after a reader", 1, 1, 2)
	f.Telemetry().Total()
	want("after a reader with nothing to fold", 1, 1, 2)

	_, bare, _ := observedFabric(t, false)
	for _, name := range bare.Names() {
		if strings.HasPrefix(name, "fabric_telemetry_") {
			t.Errorf("a fabric without telemetry registered %s", name)
		}
	}
}
