package bench

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// stallingResolver answers every pair with the empty route and sleeps
// once, on the call numbered stallAt.
type stallingResolver struct {
	calls   atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (r *stallingResolver) ResolveBatchPacked(pairs [][2]int, out []uint64) (int, uint64) {
	if r.calls.Add(1) == r.stallAt {
		time.Sleep(r.stall)
	}
	for i := range pairs {
		out[i] = 0
	}
	return len(pairs), 0
}

// serveStub runs an in-process wire.Server over TCP and returns a
// connected client; everything is torn down with the test.
func serveStub(t *testing.T, res wire.Resolver) *wire.Client {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Resolver: res}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	c, err := wire.Dial(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		<-done
	})
	return c
}

func TestArrivalsAreKeyedAndAtTheOfferedRate(t *testing.T) {
	a := arrivals(2000, time.Second, 7, 1)
	b := arrivals(2000, time.Second, 7, 1)
	c := arrivals(2000, time.Second, 8, 1)
	if len(a) != len(b) {
		t.Fatalf("same key, different arrival counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same key, arrival %d differs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d goes back in time", i)
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("a different key produced the same arrival clock")
	}
	// A Poisson count of mean 2000 has a standard deviation of 45.
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in one second at 2000/s", len(a))
	}
}

// TestOpenLoopSurfacesAStallClosedLoopHidesIt is the coordinated
// omission test: one 50 ms server stall must show, under open loop, on
// the stalled request and as queueing delay on every request that was
// due while it lasted; under closed loop only the stalled request sees
// it, because a stalled client sends nothing — which is the point.
func TestOpenLoopSurfacesAStallClosedLoopHidesIt(t *testing.T) {
	const (
		stall   = 50 * time.Millisecond
		rate    = 1000.0
		length  = 400 * time.Millisecond
		stallAt = 100
	)
	pairs := [][2]int{{1, 1}, {2, 2}, {3, 3}, {4, 4}}

	res := &stallingResolver{stallAt: stallAt, stall: stall}
	c := serveStub(t, res)
	due := arrivals(rate, length, 42)
	open := RunOpenLoop(due, length, func(i int) bool {
		_, _, err := c.ResolveBatchPacked(pairs)
		return err == nil
	})
	if len(open.Latency) < stallAt+10 {
		t.Fatalf("open loop sent only %d requests", len(open.Latency))
	}
	stalled := open.Latency[stallAt-1]
	if stalled.Value < us(stall) {
		t.Errorf("the stalled request took %v us from its due time, want at least %v", stalled.Value, us(stall))
	}
	// Every request due inside the stall waited for it: its latency
	// from due time is at least what was left of the stall.
	stallEnd := stalled.At + stalled.Value/1e6
	queued := 0
	for _, s := range open.Latency[stallAt:] {
		if s.At >= stallEnd {
			break
		}
		queued++
		if left := (stallEnd - s.At) * 1e6; s.Value < 0.9*left {
			t.Errorf("request due %.1f ms into the run took %.0f us from due time; %.0f us of the stall were still ahead of it",
				s.At*1e3, s.Value, left)
		}
	}
	// 50 ms at 1000/s is about fifty arrivals.
	if queued < 20 {
		t.Errorf("only %d requests were due during the stall", queued)
	}
	over := 0
	for _, s := range open.Latency {
		if s.Value > us(stall)/10 {
			over++
		}
	}
	if over < queued/2 {
		t.Errorf("%d requests over %v us, want the %d queued behind the stall to show", over, us(stall)/10, queued)
	}
	// The generator ran late for the same requests, and says so.
	if lag := Percentile(open.GenLag, 0.99); lag < us(stall)/10 {
		t.Errorf("gen lag p99 = %v us: the generator's lateness during the stall is not reported", lag)
	}
	if open.Due != len(due) || open.Backlog < 0 || open.Backlog+len(open.Latency) != open.Due {
		t.Errorf("open-loop bookkeeping: due %d, sent %d, backlog %d", open.Due, len(open.Latency), open.Backlog)
	}

	// The closed loop of the same test: one slow sample, nothing else.
	res2 := &stallingResolver{stallAt: stallAt, stall: stall}
	c2 := serveStub(t, res2)
	closed := RunClosedLoop(length, func(i int) bool {
		_, _, err := c2.ResolveBatchPacked(pairs)
		return err == nil
	})
	if len(closed.Latency) < stallAt+10 {
		t.Fatalf("closed loop completed only %d requests", len(closed.Latency))
	}
	slow := 0
	for _, s := range closed.Latency {
		if s.Value > us(stall)/2 {
			slow++
		}
	}
	// One by construction; a busy machine may add a stall of its own.
	if slow < 1 || slow > 3 {
		t.Errorf("closed loop shows %d slow requests, want only the stalled one (the omission)", slow)
	}
	if p99 := Percentile(values(closed.Latency), 0.99); p99 > us(stall)/2 {
		t.Errorf("closed-loop p99 = %v us: the stall should vanish from it", p99)
	}
}

func TestOpenLoopReportsBacklogWhenOverloaded(t *testing.T) {
	// Each request takes 2 ms; offering 2000/s for 100 ms leaves most of
	// the ~200 arrivals unsent.
	due := arrivals(2000, 100*time.Millisecond, 9)
	res := RunOpenLoop(due, 100*time.Millisecond, func(i int) bool {
		time.Sleep(2 * time.Millisecond)
		return true
	})
	if res.Backlog < len(due)/2 {
		t.Errorf("backlog %d of %d due: an overloaded phase must report what it left unsent", res.Backlog, len(due))
	}
	if res.Backlog+len(res.Latency) != res.Due {
		t.Errorf("due %d != sent %d + backlog %d", res.Due, len(res.Latency), res.Backlog)
	}
}
