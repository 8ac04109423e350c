package traces

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/pattern"
)

func TestCGD128PaperInstance(t *testing.T) {
	tr, err := CG(128, pattern.DefaultCGPhaseBytes, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 128 {
		t.Fatalf("ranks = %d", tr.NumRanks())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Five phases of 128 sends each at 750 KB.
	if got := tr.TotalBytes(); got != 5*128*750*1024 {
		t.Errorf("total bytes = %d", got)
	}
}

func TestWRFComputePhases(t *testing.T) {
	// Compute intervals serialize before the exchanges; total time
	// grows accordingly.
	tp := paperTree(t, 16)
	fast, err := WRF(4, 4, 4*1024, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := WRF(4, 4, 4*1024, 1, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	cfgv := cfg()
	tFast, err := dimemas.Replay(fast, tp, core.NewDModK(tp), cfgv)
	if err != nil {
		t.Fatal(err)
	}
	tSlow, err := dimemas.Replay(slow, tp, core.NewDModK(tp), cfgv)
	if err != nil {
		t.Fatal(err)
	}
	if tSlow < tFast+500_000 {
		t.Errorf("compute did not serialize: %d vs %d", tSlow, tFast)
	}
}

func TestFromPhasesIterationsScaleMessages(t *testing.T) {
	ph := pattern.Shift(8, 1, 1024)
	phases := []*pattern.Pattern{ph}
	one, err := FromPhases(8, phases, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	three, err := FromPhases(8, phases, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if three.CountMessages() != 3*one.CountMessages() {
		t.Errorf("3 iterations has %d messages, one has %d", three.CountMessages(), one.CountMessages())
	}
}
