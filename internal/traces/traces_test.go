package traces

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/pattern"
	"repro/internal/venus"
	"repro/internal/xgft"
)

func paperTree(t testing.TB, w2 int) *xgft.Topology {
	t.Helper()
	tp, err := xgft.NewSlimmedTree(16, 16, w2)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func cfg() dimemas.Config { return dimemas.Config{Net: venus.DefaultConfig()} }

func TestWRFTraceValid(t *testing.T) {
	tr, err := WRF(4, 4, 1024, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 16 {
		t.Errorf("ranks = %d", tr.NumRanks())
	}
	// 2 iterations x (2*16 - 2*4) messages.
	if got := tr.CountMessages(); got != 48 {
		t.Errorf("messages = %d, want 48", got)
	}
}

func TestWRFTraceReplays(t *testing.T) {
	tp := paperTree(t, 16)
	tr, err := WRF(16, 16, 8*1024, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	end, err := dimemas.Replay(tr, tp, core.NewDModK(tp), cfg())
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Error("replay took no time")
	}
}

func TestWRFErrors(t *testing.T) {
	if _, err := WRF(1, 4, 1024, 1, 0); err == nil {
		t.Error("1-row mesh accepted")
	}
	if _, err := WRF(4, 4, 1024, 0, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestWRF256MatchesPattern(t *testing.T) {
	tr, err := WRF(16, 16, pattern.DefaultWRFBytes, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 256 {
		t.Fatalf("ranks = %d", tr.NumRanks())
	}
	if got, want := tr.CountMessages(), len(pattern.WRF256().Flows); got != want {
		t.Errorf("trace has %d messages, pattern has %d flows", got, want)
	}
}

func TestCGTraceStructure(t *testing.T) {
	tr, err := CG(128, 1024, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 5 phases x 128 sends (fixed-point self-sends included).
	if got := tr.CountMessages(); got != 5*128 {
		t.Errorf("messages = %d, want %d", got, 5*128)
	}
}

func TestCGTraceReplays(t *testing.T) {
	tp := paperTree(t, 16)
	tr, err := CG(128, 8*1024, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	end, err := dimemas.Replay(tr, tp, core.NewDModK(tp), cfg())
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Error("replay took no time")
	}
}

func TestCGReplaySlowdownShowsPathology(t *testing.T) {
	// End-to-end: the full replay pipeline reproduces the §VII-A
	// observation that CG under D-mod-k is >2x slower than the
	// crossbar while Colored stays close to 1.
	tp := paperTree(t, 16)
	tr, err := CG(128, 32*1024, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sD, err := dimemas.MeasuredSlowdown(tr, tp, core.NewDModK(tp), cfg())
	if err != nil {
		t.Fatal(err)
	}
	if sD < 1.8 {
		t.Errorf("CG d-mod-k slowdown = %.2f, want > 1.8 (pathology)", sD)
	}
	phases, err := pattern.CGPhases(128, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	col := core.NewColored(tp, phases, core.ColoredConfig{})
	sC, err := dimemas.MeasuredSlowdown(tr, tp, col, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if sC >= sD {
		t.Errorf("colored %.2f not better than d-mod-k %.2f", sC, sD)
	}
	if sC > 1.5 {
		t.Errorf("colored CG slowdown = %.2f, want near 1", sC)
	}
}

func TestFromPatternRoundTrip(t *testing.T) {
	p := pattern.Shift(64, 5, 2048)
	tr, err := FromPhases(p.N, []*pattern.Pattern{p}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.TotalBytes(); got != p.TotalBytes() {
		t.Errorf("trace bytes %d != pattern bytes %d", got, p.TotalBytes())
	}
	tp := paperTree(t, 16)
	if _, err := dimemas.Replay(tr, tp, core.NewSModK(tp), cfg()); err != nil {
		t.Fatal(err)
	}
}

func TestFromPhasesErrors(t *testing.T) {
	if _, err := FromPhases(0, nil, 1, 0); err == nil {
		t.Error("zero ranks accepted")
	}
	mismatch := pattern.New(8)
	if _, err := FromPhases(16, []*pattern.Pattern{mismatch}, 1, 0); err == nil {
		t.Error("phase size mismatch accepted")
	}
	ok := pattern.New(16)
	if _, err := FromPhases(16, []*pattern.Pattern{ok}, 0, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestMultipleIterationsReplay(t *testing.T) {
	tp := paperTree(t, 16)
	tr, err := WRF(4, 4, 4*1024, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	one, err := WRF(4, 4, 4*1024, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	end3, err := dimemas.Replay(tr, tp, core.NewDModK(tp), cfg())
	if err != nil {
		t.Fatal(err)
	}
	end1, err := dimemas.Replay(one, tp, core.NewDModK(tp), cfg())
	if err != nil {
		t.Fatal(err)
	}
	if end3 < 2*end1 {
		t.Errorf("3 iterations (%d ns) not ~3x one iteration (%d ns)", end3, end1)
	}
}
