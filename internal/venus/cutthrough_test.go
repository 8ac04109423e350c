package venus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/pattern"
)

func TestCutThroughReducesLatencyNotBandwidth(t *testing.T) {
	tp := paperTree(t, 16)
	algo := core.NewDModK(tp)

	run := func(cut bool, bytes int64) eventq.Time {
		cfg := DefaultConfig()
		cfg.CutThrough = cut
		s, err := New(tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Inject(Message{Src: 0, Dst: 16, Bytes: bytes, Route: algo.Route(0, 16)}); err != nil {
			t.Fatal(err)
		}
		end, err := s.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}

	// Single segment: cut-through collapses the 4x store-and-forward
	// serialization to ~1 segment + 3 flit headers.
	sf := run(false, 1024)
	ct := run(true, 1024)
	if ct >= sf {
		t.Errorf("cut-through %d not faster than store-and-forward %d", ct, sf)
	}
	want := eventq.Time(4096 + 3*32 + 4*32) // tail + 3 header hops + 4 wires
	if ct != want {
		t.Errorf("cut-through latency = %d, want %d", ct, want)
	}

	// Long message: both are bandwidth-bound; difference stays within
	// the pipeline fill (3 segments).
	sfLong := run(false, 256*1024)
	ctLong := run(true, 256*1024)
	if ctLong >= sfLong {
		t.Errorf("cut-through long %d not faster than SF %d", ctLong, sfLong)
	}
	if sfLong-ctLong > 4*4096 {
		t.Errorf("cut-through saved %d ns on a long message, more than pipeline fill", sfLong-ctLong)
	}
}

func TestCutThroughContentionRatiosUnchanged(t *testing.T) {
	// The Fig. 2 slowdown ratios must be engine-invariant: cut-through
	// and store-and-forward agree on the CG pathology factor.
	tp := paperTree(t, 16)
	ph, err := pattern.CGTransposePhase(128, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	sSF, err := MeasuredSlowdown(tp, core.NewDModK(tp), ph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CutThrough = true
	sCT, err := MeasuredSlowdown(tp, core.NewDModK(tp), ph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sSF - sCT; diff > 0.5 || diff < -0.5 {
		t.Errorf("slowdown differs across forwarding modes: SF %.2f vs CT %.2f", sSF, sCT)
	}
}

func TestCutThroughAllDelivered(t *testing.T) {
	tp := paperTree(t, 4)
	cfg := DefaultConfig()
	cfg.CutThrough = true
	cfg.BufferSegments = 2
	p := pattern.Tornado(256, 16*1024)
	end, err := RunPattern(tp, core.NewRandom(tp, 11), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Error("no time elapsed")
	}
}
