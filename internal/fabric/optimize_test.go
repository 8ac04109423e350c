package fabric

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

func telemetryFabric(t *testing.T, tp *xgft.Topology, algo core.Algorithm) *Fabric {
	t.Helper()
	f, err := New(Config{Topo: tp, Algo: algo, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// adversarialPattern sends every leaf of switch 0 to a distinct
// destination with the same residue mod w2: D-mod-k funnels all of
// them through one up-port, so a pattern-aware candidate must beat it.
func adversarialPattern(tp *xgft.Topology) *pattern.Pattern {
	m, w2 := tp.M(0), tp.W(1)
	p := pattern.New(tp.Leaves())
	for s := 0; s < m; s++ {
		p.Add(s, m+s*w2, 1)
	}
	return p
}

func drive(t *testing.T, f *Fabric, p *pattern.Pattern) {
	t.Helper()
	for _, fl := range p.Flows {
		if _, ok := f.Resolve(fl.Src, fl.Dst); !ok {
			t.Fatalf("drive: pair (%d,%d) did not resolve", fl.Src, fl.Dst)
		}
	}
}

func TestTelemetryRecordsResolves(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 8})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	tel := f.Telemetry()
	if tel == nil {
		t.Fatal("telemetry enabled but accessor returned nil")
	}
	f.Resolve(0, 9)
	f.Resolve(0, 9)
	f.Resolve(3, 3)   // self pair: no traffic
	f.Resolve(0, 999) // out of range: no traffic
	pairs := [][2]int{{1, 2}, {2, 1}, {5, 5}}
	f.ResolveBatchPacked(pairs, make([]uint64, len(pairs)))
	if c := tel.Count(0, 9); c != 2 {
		t.Errorf("count(0,9) = %d, want 2", c)
	}
	if c := tel.Count(1, 2); c != 1 {
		t.Errorf("count(1,2) = %d, want 1", c)
	}
	if c := tel.Count(3, 3); c != 0 {
		t.Errorf("self pair counted: %d", c)
	}
	if got := tel.Total(); got != 4 {
		t.Errorf("total = %d, want 4", got)
	}
	obs := f.SnapshotFlows()
	if len(obs.Flows) != 3 {
		t.Fatalf("snapshot has %d flows, want 3: %v", len(obs.Flows), obs.Flows)
	}
	// (src, dst) order with Bytes = counts.
	want := []pattern.Flow{{Src: 0, Dst: 9, Bytes: 2}, {Src: 1, Dst: 2, Bytes: 1}, {Src: 2, Dst: 1, Bytes: 1}}
	for i, fl := range obs.Flows {
		if fl != want[i] {
			t.Errorf("snapshot flow %d = %+v, want %+v", i, fl, want[i])
		}
	}
	top := tel.TopFlows(2)
	if len(top) != 2 || top[0] != (FlowCount{Src: 0, Dst: 9, Count: 2}) {
		t.Errorf("top flows = %+v", top)
	}
	tel.Reset()
	if tel.Total() != 0 || len(f.SnapshotFlows().Flows) != 0 {
		t.Error("reset left counters behind")
	}
}

func TestTelemetryRecordN(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 8})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	tel := f.Telemetry()
	tel.RecordN(0, 9, 750)
	tel.RecordN(0, 9, 250)
	tel.RecordN(1, 1, 5)   // self pair: ignored
	tel.RecordN(-1, 2, 5)  // out of range: ignored
	tel.RecordN(2, 999, 5) // out of range: ignored
	tel.RecordN(3, 4, 0)   // zero weight: ignored
	if c := tel.Count(0, 9); c != 1000 {
		t.Errorf("count(0,9) = %d, want 1000", c)
	}
	if got := tel.Total(); got != 1000 {
		t.Errorf("total = %d, want 1000", got)
	}
	obs := f.SnapshotFlows()
	if len(obs.Flows) != 1 || obs.Flows[0] != (pattern.Flow{Src: 0, Dst: 9, Bytes: 1000}) {
		t.Errorf("snapshot %v, want one (0,9,1000) flow", obs.Flows)
	}
}

func TestTelemetryDisabled(t *testing.T) {
	tp := xgft.MustNew(2, []int{4, 4}, []int{1, 4})
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp)})
	if err != nil {
		t.Fatal(err)
	}
	if f.Telemetry() != nil || f.SnapshotFlows() != nil {
		t.Error("disabled telemetry still observable")
	}
	if _, err := f.Optimize(OptimizeConfig{}); err == nil {
		t.Error("Optimize on a telemetry-less fabric succeeded")
	}
}

func TestOptimizeSwapsToBetterTable(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	adv := adversarialPattern(tp)
	drive(t, f, adv)
	res, err := f.Optimize(OptimizeConfig{Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != len(adv.Flows) || res.Resolves != int64(len(adv.Flows)) {
		t.Fatalf("observed %d pairs / %d resolves, want %d", res.Pairs, res.Resolves, len(adv.Flows))
	}
	// All 8 flows share one up-port under d-mod-k: slowdown 8 against
	// a contention-free crossbar.
	if res.Current != 8 {
		t.Errorf("current slowdown = %.3f, want 8 (d-mod-k funnel)", res.Current)
	}
	if len(res.Candidates) != 4 {
		t.Fatalf("scored %d candidates, want 4: %+v", len(res.Candidates), res.Candidates)
	}
	if !res.Swapped {
		t.Fatalf("no swap despite %.2fx improvement available: %+v", res.Current/res.BestSlowdown, res)
	}
	if res.BestSlowdown >= res.Current {
		t.Errorf("best %.3f not better than current %.3f", res.BestSlowdown, res.Current)
	}
	if res.Stats.Seq != 1 || res.Stats.Algo != res.Best {
		t.Errorf("swapped stats %+v, want seq 1 algo %q", res.Stats, res.Best)
	}
	// The swapped-in generation still resolves every pair.
	if got := f.Stats().Routes; got != tp.Leaves()*(tp.Leaves()-1) {
		t.Errorf("optimized generation resolves %d routes", got)
	}
	// A second pass over the same traffic must not churn: the serving
	// table now scores bit-identically to the best candidate.
	drive(t, f, adv)
	res2, err := f.Optimize(OptimizeConfig{Reset: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Swapped {
		t.Errorf("stable traffic re-swapped: %+v", res2)
	}
	if res2.Current != res.BestSlowdown {
		t.Errorf("serving slowdown %.3f, want the installed candidate's %.3f", res2.Current, res.BestSlowdown)
	}
}

func TestOptimizeThresholdBlocksSmallGains(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	drive(t, f, adversarialPattern(tp))
	res, err := f.Optimize(OptimizeConfig{Threshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Swapped || f.Stats().Seq != 0 {
		t.Errorf("swap crossed an unreachable threshold: %+v", res)
	}
}

// TestOptimizeRefusesBadThresholds: a NaN threshold used to swap on
// every pass (no comparison with NaN holds a swap back). NaN, +Inf and
// a negative threshold are refused before the pass reads or resets
// the counters, and publish nothing.
func TestOptimizeRefusesBadThresholds(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	adv := adversarialPattern(tp)
	drive(t, f, adv)
	for _, th := range []float64{math.NaN(), math.Inf(1), -1} {
		res, err := f.Optimize(OptimizeConfig{Threshold: th, Reset: true})
		if err == nil || res.Swapped || f.Stats().Seq != 0 {
			t.Errorf("threshold %v: err %v, swapped %v, generation %d", th, err, res.Swapped, f.Stats().Seq)
		}
		if c := f.Telemetry().Count(0, 8); c != 1 {
			t.Errorf("threshold %v: pass reset the counters (count(0,8) = %d)", th, c)
		}
	}
	// The same traffic under a valid threshold still swaps.
	if res, err := f.Optimize(OptimizeConfig{Reset: true}); err != nil || !res.Swapped {
		t.Fatalf("threshold 0 after refusals: %+v, %v", res, err)
	}
}

func TestOptimizeNoTrafficIsNoop(t *testing.T) {
	tp := xgft.MustNew(2, []int{4, 4}, []int{1, 4})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	res, err := f.Optimize(OptimizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Swapped || res.Pairs != 0 || len(res.Candidates) != 0 {
		t.Errorf("idle pass did work: %+v", res)
	}
	if res.Stats.Seq != 0 {
		t.Errorf("idle pass swapped: %+v", res.Stats)
	}
}

// TestOptimizeComposesWithFaults: an optimize swap on a degraded
// fabric must never resurrect a failed wire — candidates are patched
// through the serving generation's view before scoring and install.
func TestOptimizeComposesWithFaults(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	// Fail a wire the adversarial flows do not ride (their sources
	// sit under switch 0, their destinations under switches 1-4), so
	// the d-mod-k funnel persists and the optimizer must still beat
	// it — without ever routing through the dead wire.
	if _, err := f.FailLink(1, 5, 0); err != nil {
		t.Fatal(err)
	}
	failed := tp.UpChannelID(1, 5, 0)
	drive(t, f, adversarialPattern(tp))
	res, err := f.Optimize(OptimizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped {
		t.Fatalf("no swap on the degraded fabric: %+v", res)
	}
	st := f.Stats()
	if st.FailedWires != 1 {
		t.Errorf("optimized generation dropped the fault set: %+v", st)
	}
	if st.Routes != tp.Leaves()*(tp.Leaves()-1) {
		t.Errorf("single failed link severed pairs: %+v", st)
	}
	for _, r := range f.Generation().Routes() {
		if rides(tp, r, failed) {
			t.Fatalf("optimized route %v rides the failed wire", r)
		}
	}
	// Heal discards both the fault and the optimized choice, back to
	// the configured scheme.
	hst, err := f.Heal()
	if err != nil {
		t.Fatal(err)
	}
	if hst.Algo != "d-mod-k" || hst.FailedWires != 0 {
		t.Errorf("heal stats %+v", hst)
	}
}

// TestConcurrentResolveDuringOptimize drives packed batch resolves from many
// goroutines against live Optimize hot-swaps (plus a fault/heal cycle
// for good measure). Run with -race: the resolve path must stay
// lock-free and torn-read free while generations change underneath.
func TestConcurrentResolveDuringOptimize(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f := telemetryFabric(t, tp, core.NewDModK(tp))
	n := tp.Leaves()
	adv := adversarialPattern(tp)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := uint64(g + 1)
			pairs := make([][2]int, 64)
			words := make([]uint64, len(pairs))
			for !stop.Load() {
				for i := range pairs {
					h = hashutil.Splitmix64(h)
					pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
				}
				f.ResolveBatchPacked(pairs, words)
				for i, r := range unpackedRoutes(pairs, words) {
					if pairs[i][0] == pairs[i][1] || r.Up == nil {
						continue
					}
					if err := r.Validate(tp); err != nil {
						select {
						case errs <- err:
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	for round := 0; round < 3 && len(errs) == 0; round++ {
		drive(t, f, adv)
		if _, err := f.Optimize(OptimizeConfig{Reset: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.FailLink(1, 1, round%4); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Optimize(OptimizeConfig{Reset: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Heal(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// allPairsIndex returns the index of pair (s, d) in
// pattern.AllToAll(n, 1) (s-major, self-pairs skipped), the order the
// from-scratch reference tables are aligned with.
func allPairsIndex(n, s, d int) int {
	i := s*(n-1) + d
	if d > s {
		i--
	}
	return i
}

func TestAllPairsIndex(t *testing.T) {
	n := 7
	pairs := pattern.AllToAll(n, 1)
	for i, fl := range pairs.Flows {
		if got := allPairsIndex(n, fl.Src, fl.Dst); got != i {
			t.Fatalf("allPairsIndex(%d,%d,%d) = %d, want %d", n, fl.Src, fl.Dst, got, i)
		}
	}
}

// TestSnapshotAndResetConservesCounts: Optimize{Reset: true} takes its
// window with one swap per counter, so a resolve recorded while windows
// are being cut lands in exactly one of them. Recorders hammer a small
// set of pairs while the main goroutine cuts windows; the windows plus
// the remainder add up to every record, per pair and in total. (The
// SnapshotFlows-then-Reset sequence this replaced dropped the records
// that fell between the two.) Run with -race.
func TestSnapshotAndResetConservesCounts(t *testing.T) {
	const (
		n         = 64
		recorders = 4
		perWorker = 200_000
		hotPairs  = 97
	)
	tel := newTelemetry(n)
	pair := func(i int) (int, int) {
		s := i % n
		return s, (s + 1 + i%(n-1)) % n // never s
	}
	var wg sync.WaitGroup
	var done atomic.Int32
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer done.Add(1)
			for i := 0; i < perWorker; i++ {
				tel.Record(pair((i*recorders + g) % hotPairs))
			}
		}(g)
	}
	got := make(map[[2]int]int64)
	windows := 0
	cut := func() {
		for _, fl := range tel.snapshot(true).Flows {
			got[[2]int{fl.Src, fl.Dst}] += fl.Bytes
		}
		windows++
	}
	for done.Load() < recorders {
		cut()
	}
	wg.Wait()
	cut()
	if tel.Total() != 0 {
		t.Errorf("%d counts left after the final window", tel.Total())
	}
	want := make(map[[2]int]int64)
	for g := 0; g < recorders; g++ {
		for i := 0; i < perWorker; i++ {
			s, d := pair((i*recorders + g) % hotPairs)
			want[[2]int{s, d}]++
		}
	}
	var total int64
	for p, w := range want {
		if got[p] != w {
			t.Errorf("pair %v: windows hold %d records, %d were made", p, got[p], w)
		}
		total += got[p]
	}
	if total != recorders*perWorker || len(got) != len(want) {
		t.Errorf("%d records over %d pairs in %d windows, want %d over %d", total, len(got), windows, recorders*perWorker, len(want))
	}

	// Reset stores only where it reads a count, and leaves nothing.
	tel.RecordN(3, 4, 7)
	tel.RecordN(9, 1, 2)
	tel.Reset()
	if tel.Total() != 0 {
		t.Errorf("Reset left %d counts", tel.Total())
	}
}
