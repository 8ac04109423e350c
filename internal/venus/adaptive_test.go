package venus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/pattern"
)

func TestAdaptiveSingleMessage(t *testing.T) {
	tp := paperTree(t, 16)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	delivered := false
	err = s.InjectAdaptive(Message{Src: 0, Dst: 17, Bytes: 4 * 1024,
		OnDelivered: func(at eventq.Time) { delivered = true }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Error("adaptive message not delivered")
	}
}

func TestAdaptiveValidation(t *testing.T) {
	tp := paperTree(t, 16)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InjectAdaptive(Message{Src: 0, Dst: 1, Bytes: -1}); err == nil {
		t.Error("negative size accepted")
	}
	if err := s.InjectAdaptive(Message{Src: 0, Dst: 999, Bytes: 1}); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestAdaptiveSelfMessage(t *testing.T) {
	tp := paperTree(t, 16)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InjectAdaptive(Message{Src: 5, Dst: 5, Bytes: 1024}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(s.Delivered()) != 1 {
		t.Error("self message lost")
	}
}

func TestAdaptiveDeliversEverything(t *testing.T) {
	tp := paperTree(t, 6)
	p := pattern.UniformRandom(256, 2, 8*1024, 7)
	end, err := RunPatternAdaptive(tp, p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Error("no time elapsed")
	}
}

func TestAdaptiveBeatsDModKOnCGTranspose(t *testing.T) {
	// Per-segment adaptivity spreads CG's transpose over all up
	// ports, escaping the modulo pathology.
	tp := paperTree(t, 16)
	ph, err := pattern.CGTransposePhase(128, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	adaptive, err := MeasuredPhasedSlowdownAdaptive(tp, []*pattern.Pattern{ph}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oblivious, err := MeasuredSlowdown(tp, core.NewDModK(tp), ph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive >= oblivious {
		t.Errorf("adaptive %.2f not better than d-mod-k %.2f on the pathological transpose", adaptive, oblivious)
	}
	if adaptive > 3 {
		t.Errorf("adaptive transpose slowdown %.2f, want close to 1", adaptive)
	}
}

func TestAdaptiveNotAlwaysBetter(t *testing.T) {
	// The paper's point (§I): local adaptive decisions are not always
	// better than a good oblivious scheme. On WRF, D-mod-k routes
	// conflict-free; adaptive decisions cannot beat it.
	tp := paperTree(t, 16)
	p := pattern.WRF(16, 16, 32*1024)
	cfg := DefaultConfig()
	adaptive, err := MeasuredPhasedSlowdownAdaptive(tp, []*pattern.Pattern{p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oblivious, err := MeasuredSlowdown(tp, core.NewDModK(tp), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive < oblivious*0.95 {
		t.Errorf("adaptive %.2f significantly beats conflict-free d-mod-k %.2f", adaptive, oblivious)
	}
}

func TestAdaptivePhased(t *testing.T) {
	tp := paperTree(t, 10)
	phases, err := pattern.CGPhases(128, 8*1024)
	if err != nil {
		t.Fatal(err)
	}
	s, err := MeasuredPhasedSlowdownAdaptive(tp, phases, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s < 1 || s > 3 {
		t.Errorf("adaptive phased slowdown = %.2f", s)
	}
}
