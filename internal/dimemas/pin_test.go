package dimemas

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/hashutil"
	"repro/internal/pattern"
)

// cgTrace lowers the CG phases the way traces.FromPhases does (which
// this package cannot import): per phase every rank computes for
// compute ns (when positive), posts its sends, then its receives,
// waits for the sends and meets the others at a barrier.
func cgTrace(t *testing.T, bytes int64, compute eventq.Time) *Trace {
	t.Helper()
	phases, err := pattern.CGPhases(128, bytes)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{Ranks: make([][]Op, 128)}
	for pi, ph := range phases {
		sends, recvs := make([][]Op, ph.N), make([][]Op, ph.N)
		for _, f := range ph.Flows {
			sends[f.Src] = append(sends[f.Src], ISend{Dst: f.Dst, Bytes: f.Bytes, Tag: pi, Req: len(sends[f.Src])})
			recvs[f.Dst] = append(recvs[f.Dst], Recv{Src: f.Src, Tag: pi})
		}
		for r := range tr.Ranks {
			if compute > 0 {
				tr.Ranks[r] = append(tr.Ranks[r], Compute{Dur: compute + eventq.Time(r%4)})
			}
			tr.Ranks[r] = append(append(append(tr.Ranks[r], sends[r]...), recvs[r]...), WaitAll{}, Barrier{})
		}
	}
	return tr
}

// TestCGReplayPinned is the replay-level twin of venus's
// TestCGTransposePinned: the whole CG trace (four switch-local phases,
// the transpose, barriers between them) under d-mod-k on
// XGFT(2;16,16;1,10), held to the makespan, event count, segment count
// and delivery sequence recorded at commit 2165a6c, before the
// calendar lanes and the closure-free simulator loop, except the event
// counts, recorded since venus schedules no credit return or ejection
// that cannot change the schedule.
func TestCGReplayPinned(t *testing.T) {
	tp := paperTree(t, 10)
	tr := cgTrace(t, 32*1024, 0)
	for _, tc := range []struct {
		name       string
		cutThrough bool
		want       [4]uint64 // makespan, processed, segments, delivered hash
	}{
		{"store-and-forward", false, [4]uint64{1474944, 77856, 47104, 0x8f346175e5af38e7}},
		{"cut-through", true, [4]uint64{1446496, 77840, 47104, 0xf6ef24a6eec2c28c}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg()
			cfg.Net.CutThrough = tc.cutThrough
			eng, err := NewEngine(tr, tp, core.NewDModK(tp), cfg)
			if err != nil {
				t.Fatal(err)
			}
			end, err := eng.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			sim := eng.sim
			ds := sim.Delivered()
			h := uint64(len(ds))
			for _, d := range ds {
				h = hashutil.Fold(h, uint64(d.Src), uint64(d.Dst), uint64(d.Bytes), uint64(d.Tag),
					uint64(d.InjectedAt), uint64(d.DeliveredAt))
			}
			got := [4]uint64{uint64(end), sim.Q.Processed(), sim.SegmentsMoved, h}
			if got != tc.want {
				t.Errorf("makespan, processed, segments, delivered hash = %d %d %d %#x, parent recorded %d %d %d %#x",
					got[0], got[1], got[2], got[3], tc.want[0], tc.want[1], tc.want[2], tc.want[3])
			}
		})
	}
}

// TestCGReplayWithComputePinned pins one Replay of CG-128 on
// XGFT(2;16,16;1,10) whose ranks compute before every phase, so the
// calendar interleaves the simulator's channel ops with the engine's
// compute closures, tied in time by the thousand. Replay's makespan and
// the event count of the same run are held to the values recorded
// before the calendar's ops and closures shared one seq counter: the
// schedule, not only its figures, must be the same.
func TestCGReplayWithComputePinned(t *testing.T) {
	tp := paperTree(t, 10)
	tr := cgTrace(t, 8*1024, 5000)
	end, err := Replay(tr, tp, core.NewDModK(tp), cfg())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(tr, tp, core.NewDModK(tp), cfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	got := [2]uint64{uint64(end), eng.sim.Q.Processed()}
	if want := [2]uint64{pinComputeMakespan, pinComputeProcessed}; got != want {
		t.Errorf("makespan, processed = %d %d, parent recorded %d %d", got[0], got[1], want[0], want[1])
	}
}

// Recorded at commit 4c714fa, the last with a closure per event, except
// the event count, recorded since venus schedules no credit return or
// ejection that cannot change the schedule.
const (
	pinComputeMakespan  = 418613
	pinComputeProcessed = 20128
)
