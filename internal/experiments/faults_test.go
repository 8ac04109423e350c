package experiments

import (
	"reflect"
	"testing"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/xgft"
)

func TestTopWireOrder(t *testing.T) {
	tp, _ := xgft.NewSlimmedTree(16, 16, 16)
	a := topWireOrder(tp, 1)
	b := topWireOrder(tp, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("topWireOrder not deterministic per seed")
	}
	c := topWireOrder(tp, 2)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same wire order")
	}
	// A permutation of exactly the top-level wire IDs.
	if len(a) != tp.ChannelsAt(1) {
		t.Fatalf("order over %d wires, want %d", len(a), tp.ChannelsAt(1))
	}
	base := tp.TotalChannels() - tp.ChannelsAt(1)
	seen := make(map[int]bool)
	for _, id := range a {
		if id < base || id >= tp.TotalChannels() || seen[id] {
			t.Fatalf("order is not a top-wire permutation: %d", id)
		}
		seen[id] = true
	}
}

func TestFaultSweep(t *testing.T) {
	opt := Options{Seeds: 3, Parallelism: 4, Cache: core.NewTableCache(256)}
	app := WRFApp()
	rows, err := FaultSweep(app, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(faultFractions) {
		t.Fatalf("%d rows, want %d", len(rows), len(faultFractions))
	}

	// The healthy row is the Figure-2 w2=16 baseline: every seed sees
	// the same (empty) failure set, so the distributions collapse.
	tp, _ := xgft.NewSlimmedTree(16, 16, 16)
	phases := app.Phases(0)
	want, err := contention.PhasedSlowdown(tp, core.NewDModK(tp), phases)
	if err != nil {
		t.Fatal(err)
	}
	r0 := rows[0]
	if r0.FailedLinks != 0 || r0.Unreachable != 0 {
		t.Fatalf("healthy row carries failures: %+v", r0)
	}
	if r0.DModK.Min != r0.DModK.Max || absDiff(r0.DModK.Median, want) > 1e-12 {
		t.Fatalf("healthy d-mod-k row %+v, want all-equal %v", r0.DModK, want)
	}

	for i, r := range rows {
		for _, s := range []float64{r.DModK.Min, r.Random.Min, r.RNCAUp.Min, r.RNCADn.Min} {
			if s < 1-1e-9 {
				t.Fatalf("row %d: slowdown %v below the minimal-routing bound", i, s)
			}
		}
		if r.Unreachable < 0 || r.Unreachable > 1 {
			t.Fatalf("row %d: unreachable fraction %v", i, r.Unreachable)
		}
	}
	// More failures cannot speed up the deterministic scheme: the
	// failure sets are nested per seed, so d-mod-k's median is
	// monotone up to reroute noise.
	if rows[len(rows)-1].DModK.Median < rows[0].DModK.Median {
		t.Fatalf("d-mod-k median improved under failures: %v -> %v",
			rows[0].DModK.Median, rows[len(rows)-1].DModK.Median)
	}
}

func TestFaultSweepRejectsSimulatedEngine(t *testing.T) {
	if _, err := FaultSweep(WRFApp(), Options{Engine: Simulated, Seeds: 1}); err == nil {
		t.Fatal("simulated engine accepted by the analytic-only sweep")
	}
}

func TestFaultSweepParallelismInvariant(t *testing.T) {
	app := CGApp()
	seq, err := FaultSweep(app, Options{Seeds: 2, Parallelism: 1, Cache: core.NewTableCache(256)})
	if err != nil {
		t.Fatal(err)
	}
	par, err := FaultSweep(app, Options{Seeds: 2, Parallelism: 8, Cache: core.NewTableCache(256)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("FaultSweep results depend on parallelism")
	}
}

// TestDegradedPatchedTablesDeadlockFree certifies the sweep's repair
// path: even at the highest failure fraction the patched route set
// keeps the up/down channel dependency graph acyclic.
func TestDegradedPatchedTablesDeadlockFree(t *testing.T) {
	tp, _ := xgft.NewSlimmedTree(16, 16, 16)
	v := xgft.NewView(tp)
	order := topWireOrder(tp, 1)
	frac := faultFractions[len(faultFractions)-1]
	for _, wire := range order[:int(frac*float64(len(order))+0.5)] {
		v.FailWire(wire)
	}
	phases := WRFApp().Phases(0)
	for _, p := range phases {
		tbl, err := core.BuildTable(tp, core.NewDModK(tp), p)
		if err != nil {
			t.Fatal(err)
		}
		patched, st, err := core.PatchTable(tbl, v)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rerouted == 0 {
			t.Fatal("40% top-level failures patched nothing")
		}
		routes := patched.Routes
		if st.Unreachable > 0 {
			routes = nil
			for i, f := range p.Flows {
				if r := patched.Routes[i]; f.Src == f.Dst || r.Up != nil {
					routes = append(routes, r)
				}
			}
		}
		if err := contention.VerifyDeadlockFree(tp, routes); err != nil {
			t.Fatalf("patched WRF table not deadlock-free: %v", err)
		}
		// Cross-check degradedSlowdown's arithmetic against the
		// analytic evaluator on the same patched set.
		if st.Unreachable == 0 {
			res, err := evaluate.NewAnalytic(nil).ScoreRoutes(tp, p, patched.Routes)
			if err != nil {
				t.Fatal(err)
			}
			want := res.Slowdown
			got, _, err := degradedSlowdown(nil, tp, v, core.NewDModK(tp), phases[:1])
			if err != nil {
				t.Fatal(err)
			}
			if absDiff(got, want) > 1e-12 {
				t.Fatalf("degradedSlowdown %v, ScoreRoutes %v", got, want)
			}
		}
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
