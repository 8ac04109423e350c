package experiments_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestShiftSweepOnlineNeverWorseThanStatic(t *testing.T) {
	opt := experiments.Options{Seeds: 4, Parallelism: 2}
	rows, err := experiments.ShiftSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d phases", len(rows))
	}
	for _, r := range rows {
		// The acceptance bar: the re-optimized fabric matches or
		// beats static d-mod-k on every phase — distribution-wide,
		// since the optimizer's candidate set includes d-mod-k and
		// any strict improvement swaps.
		if r.Online.Max > r.Static.Max || r.Online.Median > r.Static.Median {
			t.Errorf("phase %s: online %+v worse than static %+v", r.Phase, r.Online, r.Static)
		}
		if r.Online.Min < 1-1e-9 || r.Static.Min < 1-1e-9 {
			t.Errorf("phase %s: slowdown below 1: online %v static %v", r.Phase, r.Online.Min, r.Static.Min)
		}
		total := 0
		for _, c := range r.Chosen {
			total += c
		}
		if total != 4 {
			t.Errorf("phase %s: chosen histogram covers %d seeds, want 4: %v", r.Phase, total, r.Chosen)
		}
	}
	// Permutations contend on the slimmed tree under d-mod-k, so the
	// optimizer must actually improve somewhere, not just tie.
	improved := false
	for _, r := range rows {
		if r.Online.Median < r.Static.Median {
			improved = true
		}
	}
	if !improved {
		t.Error("online fabric never improved on static d-mod-k in any phase")
	}
}

func TestShiftSweepParallelismInvariant(t *testing.T) {
	run := func(parallel int) []experiments.ShiftRow {
		rows, err := experiments.ShiftSweep(experiments.Options{Seeds: 3, Parallelism: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	render := func(rows []experiments.ShiftRow) string {
		var buf bytes.Buffer
		experiments.WriteShiftSweep(&buf, rows)
		return buf.String()
	}
	seq := render(run(1))
	par := render(run(8))
	if seq != par {
		t.Errorf("parallel output differs from sequential:\n--- sequential\n%s--- parallel\n%s", seq, par)
	}
}

func TestShiftSweepRejectsSimulatedEngine(t *testing.T) {
	_, err := experiments.ShiftSweep(experiments.Options{Engine: experiments.Simulated, Seeds: 1})
	if err == nil || !strings.Contains(err.Error(), "analytic") {
		t.Fatalf("simulated engine accepted: %v", err)
	}
}
