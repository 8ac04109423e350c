package experiments

import (
	"bytes"
	"testing"
)

func placementOpts(par int) Options {
	return Options{Seeds: 3, Parallelism: par}
}

func TestPlacementSweepPolicyOrdering(t *testing.T) {
	rows, err := PlacementSweep(placementOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(placementPolicies) {
		t.Fatalf("%d rows, want %d", len(rows), len(placementPolicies))
	}
	byName := make(map[string]PlacementRow)
	for i, r := range rows {
		if r.Policy != placementPolicies[i] {
			t.Errorf("row %d is %q, want %q", i, r.Policy, placementPolicies[i])
		}
		if r.Placed == 0 {
			t.Errorf("policy %s placed no jobs", r.Policy)
		}
		byName[r.Policy] = r
	}
	// Admission is capacity-only, so every policy sees the same
	// schedule succeed and fail identically.
	for _, r := range rows {
		if r.Placed != rows[0].Placed || r.Rejected != rows[0].Rejected {
			t.Errorf("admission differs across policies: %+v vs %+v", r, rows[0])
		}
	}
	// The headline claim: topology- and pattern-aware placement beats
	// oblivious scatter on median per-job slowdown.
	if b, r := byName["balanced"], byName["random"]; b.PerJob.Median >= r.PerJob.Median {
		t.Errorf("balanced median %.3f not better than random %.3f", b.PerJob.Median, r.PerJob.Median)
	}
	if tl, r := byName["telemetry"], byName["random"]; tl.PerJob.Median >= r.PerJob.Median {
		t.Errorf("telemetry median %.3f not better than random %.3f", tl.PerJob.Median, r.PerJob.Median)
	}
	// Scattering also shatters the free pool.
	if b, r := byName["balanced"], byName["random"]; b.Frag.Mean >= r.Frag.Mean {
		t.Errorf("balanced fragmentation %.3f not better than random %.3f", b.Frag.Mean, r.Frag.Mean)
	}
}

// TestPlacementSweepParallelismInvariant is the sweep's determinism
// gate: the rendered table must be byte-identical between a
// sequential run and a maximally parallel one (the CI check behind
// `cmd/experiments -placement -parallel=N`).
func TestPlacementSweepParallelismInvariant(t *testing.T) {
	render := func(par int) string {
		rows, err := PlacementSweep(placementOpts(par))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		WritePlacementSweep(&buf, rows)
		return buf.String()
	}
	seq := render(1)
	for _, par := range []int{4, 16} {
		if got := render(par); got != seq {
			t.Fatalf("parallel=%d output differs from sequential:\n%s\nvs\n%s", par, got, seq)
		}
	}
	if seq == "" {
		t.Fatal("empty render")
	}
}

func TestPlacementSweepRejectsSimulatedEngine(t *testing.T) {
	opt := placementOpts(1)
	opt.Engine = Simulated
	if _, err := PlacementSweep(opt); err == nil {
		t.Fatal("simulated engine accepted")
	}
}

func TestPlacementScheduleDeterministic(t *testing.T) {
	a, err := placementDraws.schedule(7, 1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := placementDraws.schedule(7, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != placementDraws.jobs || len(b) != placementDraws.jobs {
		t.Fatalf("schedule lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].arrive != b[i].arrive || a[i].depart != b[i].depart || a[i].spec.Name != b[i].spec.Name {
			t.Fatalf("schedule event %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].depart <= a[i].arrive {
			t.Fatalf("event %d departs before it arrives: %+v", i, a[i])
		}
		if i > 0 && a[i].arrive <= a[i-1].arrive {
			t.Fatalf("arrivals not strictly increasing at %d", i)
		}
	}
}
