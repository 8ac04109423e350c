package fifo

import (
	"testing"

	"repro/internal/hashutil"
)

// TestQueueMatchesSlice drives a queue and a plain slice through the
// same keyed-random pushes and pops, in phases that drain it, keep it
// nearly full (the reclaim path) and let it grow.
func TestQueueMatchesSlice(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := hashutil.NewStream(seed)
		q := WithCap[int](4)
		var want []int
		next := 0
		for step := 0; step < 20000; step++ {
			// Push-heavy, balanced and pop-heavy stretches.
			pushOdds := []int{3, 2, 1}[step/500%3]
			if len(want) == 0 || rng.Intn(4) < pushOdds {
				q.Push(next)
				want = append(want, next)
				next++
			} else {
				if got := *q.Front(); got != want[0] {
					t.Fatalf("seed %d step %d: Front = %d, want %d", seed, step, got, want[0])
				}
				if got := q.Pop(); got != want[0] {
					t.Fatalf("seed %d step %d: Pop = %d, want %d", seed, step, got, want[0])
				}
				want = want[1:]
			}
			if q.Empty() != (len(want) == 0) {
				t.Fatalf("seed %d step %d: Empty = %v with %d queued", seed, step, q.Empty(), len(want))
			}
		}
	}
}

// TestSteadyQueueStopsGrowing holds a queue at a constant backlog: the
// buffer must settle instead of trailing its spent prefix forever.
func TestSteadyQueueStopsGrowing(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 100; i++ {
		q.Push(new(int))
	}
	for i := 0; i < 100000; i++ {
		q.Push(q.Pop())
	}
	if cap(q.buf) > 512 {
		t.Errorf("buffer grew to %d slots for a backlog of 100", cap(q.buf))
	}
	if allocs := testing.AllocsPerRun(1000, func() { q.Push(q.Pop()) }); allocs != 0 {
		t.Errorf("%.1f allocations per push/pop on a warmed queue", allocs)
	}
}
