package bench

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fabric"
	"repro/internal/wire"
)

// corruptingResolver serves the real store but flips one bit of one
// word of the batch numbered corruptAt.
type corruptingResolver struct {
	f         *fabric.Fabric
	calls     atomic.Int64
	corruptAt int64
}

func (r *corruptingResolver) ResolveBatchPacked(pairs [][2]int, out []uint64) (int, uint64) {
	n, gen := r.f.ResolveBatchPacked(pairs, out)
	if r.calls.Add(1) == r.corruptAt {
		out[len(out)/2] ^= 1
	}
	return n, gen
}

// driveStub points a resolve workload's own driver and accounting at
// an in-process server in front of res and runs units through it.
func driveStub(t *testing.T, name string, res func(*fabric.Fabric) wire.Resolver, units int) *WorkloadResult {
	t.Helper()
	w, err := newResolveWorkload(&env{sz: smokeSizes(), seed: 3}, name)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Resolver: res(w.oracle)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	if w.drv, err = w.mk(l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < units; i++ {
		if !w.unit(i) {
			t.Fatalf("unit %d left the connection unusable", i)
		}
	}
	return w.finish()
}

// TestOneCorruptedWordFailsTheRun is the harness's self-test: a server
// that corrupts a single bit of a single response word must turn the
// run incorrect, count exactly one failed operation of those attempted
// and name the word.
func TestOneCorruptedWordFailsTheRun(t *testing.T) {
	for _, name := range []string{ResolveBulk, ResolveSmall} {
		t.Run(name, func(t *testing.T) {
			const units = 12
			clean := driveStub(t, name, func(f *fabric.Fabric) wire.Resolver { return f }, units)
			if !clean.Correct || clean.Failed != 0 || clean.Attempted != units {
				t.Fatalf("honest server: correct=%v attempted=%d failed=%d %v", clean.Correct, clean.Attempted, clean.Failed, clean.Failures)
			}
			if r := clean.Metrics["failed_ops_ratio"]; r.Value != 0 || r.N != units {
				t.Errorf("honest server: failed_ops_ratio = %+v", r)
			}

			bad := driveStub(t, name, func(f *fabric.Fabric) wire.Resolver {
				return &corruptingResolver{f: f, corruptAt: 5}
			}, units)
			if bad.Correct {
				t.Fatal("a corrupted word did not fail the run")
			}
			if bad.Attempted != units || bad.Failed != 1 {
				t.Errorf("attempted=%d failed=%d, want %d and 1", bad.Attempted, bad.Failed, units)
			}
			if got, want := bad.Metrics["failed_ops_ratio"].Value, 1.0/units; got != want {
				t.Errorf("failed_ops_ratio = %v, want %v", got, want)
			}
			if len(bad.Failures) != 1 || !strings.Contains(bad.Failures[0], "oracle mismatch") {
				t.Errorf("failure list = %q, want the oracle mismatch spelled out", bad.Failures)
			}
			if line := Contract(bad, false); line.Correct || line.Failed != 1 || line.Attempted != units {
				t.Errorf("driver line = %+v, want it to carry the failure", line)
			}
		})
	}
}

func TestTallyListsOnlyTheFirstFailures(t *testing.T) {
	var tally Tally
	tally.Attempt(25)
	for i := 0; i < 25; i++ {
		tally.Fail("op %d", i)
	}
	attempted, failed := tally.Counts()
	if attempted != 25 || failed != 25 {
		t.Errorf("counts = %d, %d; want 25, 25", attempted, failed)
	}
	list := tally.Failures()
	if len(list) != maxListedFailures || list[0] != "op 0" || list[len(list)-1] != "op 9" {
		t.Errorf("listed failures = %q", list)
	}
	res := finishResult("x", newAcc(), &tally, nil)
	if res.Correct || res.Metrics["failed_ops_ratio"].Value != 1 {
		t.Errorf("result = correct %v, ratio %v", res.Correct, res.Metrics["failed_ops_ratio"].Value)
	}
	// Nothing attempted is not a pass.
	if res := finishResult("x", newAcc(), &Tally{}, nil); res.Correct {
		t.Error("a workload that attempted nothing reports correct")
	}
}

func TestStripTimingsKeepsEverythingButTheClockLines(t *testing.T) {
	in := "=== Table I ===\nrow [inter-switch]\n    [0.12s]\n\n=== Figure 3 ===\n  phase 5: factor 7.00  [inter-switch]\n    [12.00s]\n"
	want := "=== Table I ===\nrow [inter-switch]\n\n=== Figure 3 ===\n  phase 5: factor 7.00  [inter-switch]\n"
	if got := string(stripTimings([]byte(in))); got != want {
		t.Errorf("stripTimings:\n%q\nwant\n%q", got, want)
	}
	a := outputHash([]byte("x\n    [0.10s]\n"), []byte("y\n    [2.00s]\n"))
	b := outputHash([]byte("x\n    [0.90s]\n"), []byte("y\n    [1.00s]\n"))
	if a != b {
		t.Error("the output hash depends on the timing lines")
	}
	if c := outputHash([]byte("x2\n"), []byte("y\n")); c == a {
		t.Error("the output hash ignores the output")
	}
}

func TestChurnCycleIsAFunctionOfTheSeed(t *testing.T) {
	e := &env{sz: smokeSizes()}
	w, err := newChurnWorkload(e)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for c := 0; c < 9; c++ {
		a, err := churnCycle(w.tp, e.sz, 1, c)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := churnCycle(w.tp, e.sz, 1, c)
		if decisionInput(a) != decisionInput(b) {
			t.Fatalf("cycle %d differs between two generations with the same seed", c)
		}
		other, _ := churnCycle(w.tp, e.sz, 2, c)
		if c%3 != 2 && decisionInput(a) == decisionInput(other) {
			t.Errorf("cycle %d is the same under seeds 1 and 2", c)
		}
		kinds[a.Kind] = true
		if a.Level != w.tp.Height()-1 || a.Switch >= w.tp.NodesAt(a.Level) || a.Port >= w.tp.W(a.Level) {
			t.Errorf("cycle %d fails link (%d,%d,%d), outside the top level", c, a.Level, a.Switch, a.Port)
		}
		if _, err := jobSpec(a.JobApp, a.JobN, a.JobSeed); err != nil {
			t.Errorf("cycle %d: job %s-%d: %v", c, a.JobApp, a.JobN, err)
		}
		for _, p := range a.Probe {
			if p[0] == p[1] {
				t.Fatalf("cycle %d: verifying probe holds a self pair", c)
			}
		}
	}
	if len(kinds) != 3 {
		t.Errorf("pattern kinds seen: %v, want all three", kinds)
	}
	for _, p := range w.selfPairs {
		if p[0] != p[1] {
			t.Fatal("the open-loop probe holds a pair telemetry would count")
		}
	}
}

// decisionInput renders a cycle's inputs for comparison.
func decisionInput(in cycleInput) string { return fmt.Sprint(in) }
