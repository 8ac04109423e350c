package fabric

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/xgft"
)

func observedFabric(t testing.TB, telemetry bool) (*Fabric, *obs.Registry, *obs.Journal) {
	t.Helper()
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 8})
	reg := obs.NewRegistry()
	jnl := obs.NewJournal(64, nil)
	f, err := New(Config{
		Topo: tp, Algo: core.NewDModK(tp),
		Telemetry: telemetry, Metrics: reg, Journal: jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, reg, jnl
}

// TestInstrumentedResolveBatchPackedZeroAllocs pins the hot-path
// guarantee instrumentation must not break: a packed batch resolve on
// a fully observed fabric (metrics + journal + telemetry) allocates
// nothing per call.
func TestInstrumentedResolveBatchPackedZeroAllocs(t *testing.T) {
	f, _, _ := observedFabric(t, true)
	n := f.Topology().Leaves()
	pairs := make([][2]int, 1024)
	out := make([]uint64, len(pairs))
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	if avg := testing.AllocsPerRun(100, func() {
		f.ResolveBatchPacked(pairs, out)
	}); avg != 0 {
		t.Fatalf("instrumented ResolveBatchPacked allocates %v per batch, want 0", avg)
	}
}

// TestFabricMetricsAndJournal checks the instruments actually count:
// resolves, batches, swap events with reasons, and the optimize
// decision event trailing its swap.
func TestFabricMetricsAndJournal(t *testing.T) {
	f, reg, jnl := observedFabric(t, true)
	n := f.Topology().Leaves()

	// Initial publish: one generation.swap with reason "initial".
	tail := jnl.Tail(0)
	if len(tail) != 1 || tail[0].Type != "generation.swap" || tail[0].Fields["reason"] != "initial" {
		t.Fatalf("initial journal = %+v", tail)
	}

	if _, ok := f.Resolve(0, 9); !ok {
		t.Fatal("resolve failed")
	}
	f.Resolve(0, 0) // self pair: served with the empty route
	pairs := [][2]int{{1, 9}, {2, 10}}
	out := make([]uint64, 2)
	f.ResolveBatchPacked(pairs, out)

	snap := reg.Snapshot()
	if got := snap["fabric_resolves_total"]; got != 4 {
		t.Errorf("fabric_resolves_total = %v, want 4", got)
	}
	// A single Resolve is a batch of one: three calls, three batches.
	if got := snap["fabric_resolve_batches_total"]; got != 3 {
		t.Errorf("fabric_resolve_batches_total = %v, want 3", got)
	}
	if got := snap["fabric_routes_served"]; got != 4 {
		t.Errorf("fabric_routes_served = %v, want 4", got)
	}
	if got := snap["fabric_resolve_batch_packed_ns_count"]; got != 3 {
		t.Errorf("packed histogram count = %v, want 3", got)
	}

	// Isolate leaf 5 (its only up wire): the next lookup for it is
	// unresolved. Then a second fault, its rejected duplicate, and a
	// heal: three more swaps plus one rejection event.
	if _, err := f.FailLink(0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Resolve(5, 9); ok {
		t.Fatal("isolated leaf still resolves")
	}
	if _, err := f.FailLink(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.FailLink(1, 0, 0); err == nil {
		t.Fatal("duplicate fault accepted")
	}
	if _, err := f.Heal(); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap["fabric_unresolved_total"]; got != 1 {
		t.Errorf("fabric_unresolved_total = %v, want 1", got)
	}
	if got := snap["fabric_generation_swaps_total"]; got != 3 {
		t.Errorf("swaps = %v, want 3", got)
	}
	if got := snap["fabric_generation"]; got != 3 {
		t.Errorf("generation gauge = %v, want 3", got)
	}
	// The swap reset the per-generation served gauge.
	if got := snap["fabric_routes_served"]; got != 0 {
		t.Errorf("fabric_routes_served after swap = %v, want 0", got)
	}
	types := []string{}
	for _, ev := range jnl.Tail(0) {
		types = append(types, ev.Type)
	}
	want := []string{"generation.swap", "generation.swap", "generation.swap", "fail.link.rejected", "generation.swap"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("journal types = %v, want %v", types, want)
	}
	// Every swap says where its build time went: the certification
	// share and the rest sum to the event's duration, and both
	// histograms saw each of the four published generations.
	for _, ev := range jnl.Tail(0) {
		if ev.Type != "generation.swap" {
			continue
		}
		build, okB := ev.Fields["build_ns"].(int64)
		verify, okV := ev.Fields["verify_ns"].(int64)
		if !okB || !okV || verify <= 0 || build <= 0 || build+verify != ev.Dur.Nanoseconds() {
			t.Errorf("swap event %d: build_ns=%v verify_ns=%v dur=%v", ev.Seq, ev.Fields["build_ns"], ev.Fields["verify_ns"], ev.Dur)
		}
	}
	// And what it cost: the initial build certifies the whole table and
	// holds no exception (every pair serves the pinned guided base); a
	// fault certifies exactly the routes it rerouted.
	for i, ev := range jnl.Tail(0) {
		if ev.Type != "generation.swap" {
			continue
		}
		certified, okC := ev.Fields["certified_routes"].(int)
		exceptions, okE := ev.Fields["exception_words"].(int)
		switch {
		case !okC || !okE:
			t.Errorf("swap event %d lacks %v: %+v", ev.Seq, SwapEventKeys(), ev.Fields)
		case i == 0 && (certified != n*(n-1) || exceptions != 0):
			t.Errorf("initial swap certified %d routes holding %d exception words, want %d and 0", certified, exceptions, n*(n-1))
		case i > 0 && certified != ev.Fields["patched"]:
			t.Errorf("swap event %d certified %d routes, rerouted %v", ev.Seq, certified, ev.Fields["patched"])
		}
	}
	for _, name := range SwapObsNames() {
		if got := snap[name+"_count"]; got != 4 {
			t.Errorf("%s_count = %v, want 4 (initial + 3 swaps)", name, got)
		}
	}

	// An optimize pass journals swap-then-decision.
	for s := 0; s < 4; s++ {
		for d := n / 2; d < n; d++ {
			f.Resolve(s, d)
		}
	}
	res, err := f.Optimize(OptimizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tail = jnl.Tail(1)
	if tail[0].Type != "optimize" {
		t.Fatalf("last event = %+v, want optimize", tail[0])
	}
	if tail[0].Fields["swapped"] != res.Swapped || tail[0].Fields["best"] != res.Best {
		t.Fatalf("optimize event fields = %+v vs result %+v", tail[0].Fields, res)
	}
	if cands, ok := tail[0].Fields["candidates"].([]map[string]any); !ok || len(cands) != len(res.Candidates) {
		t.Fatalf("optimize event candidates = %+v", tail[0].Fields["candidates"])
	}
}

// TestObservedChurnRace exercises concurrent metric recording and
// journal reads against live generation churn (run with -race):
// resolvers hammer the batch paths while FailLink/Heal and Optimize
// hot-swap generations and scrapers read the exposition and the
// journal tail.
func TestObservedChurnRace(t *testing.T) {
	f, reg, jnl := observedFabric(t, true)
	n := f.Topology().Leaves()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Resolvers: packed batches plus single-pair lookups.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pairs := make([][2]int, 256)
			out := make([]uint64, len(pairs))
			h := uint64(w + 1)
			for i := range pairs {
				h = hashutil.Splitmix64(h)
				pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.ResolveBatchPacked(pairs, out)
				f.Resolve(w, (w+9)%n)
			}
		}(w)
	}
	// Churn: fault/heal swaps racing optimize passes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.FailLink(1, i%8, i/8%8); err == nil {
				f.Heal()
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.Optimize(OptimizeConfig{Threshold: 0.01})
		}
	}()
	// Scrapers: exposition writes and journal tails.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			tail := jnl.Tail(16)
			for k := 1; k < len(tail); k++ {
				if tail[k].Seq != tail[k-1].Seq+1 {
					t.Errorf("journal tail not contiguous: %d after %d", tail[k].Seq, tail[k-1].Seq)
					return
				}
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	snap := reg.Snapshot()
	if snap["fabric_resolves_total"] == 0 || snap["fabric_resolve_batches_total"] == 0 {
		t.Fatalf("no traffic recorded: %v", snap)
	}
	if jnl.Seq() == 0 {
		t.Fatal("no churn journaled")
	}
}
