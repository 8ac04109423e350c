package bench

import (
	"math"
	"time"

	"repro/internal/hashutil"
)

// spinBelow is how close to a due time the pacer stops sleeping and
// spins: this kernel's time.Sleep overshoots by about a millisecond,
// which is two whole inter-arrival gaps at 2000 requests/s.
const spinBelow = 1500 * time.Microsecond

// waitUntil blocks until t: sleeps while t is far, spins for the rest.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinBelow {
			time.Sleep(d - spinBelow)
		}
	}
}

// arrivals returns the due offsets of an open-loop phase: a Poisson
// process of the given rate (independent users), its exponential gaps
// drawn from a hashutil stream keyed by the arguments, so the same
// key gives the same arrival clock on every run.
func arrivals(rate float64, length time.Duration, key ...uint64) []time.Duration {
	st := hashutil.NewStream(append([]uint64{0xa771}, key...)...)
	var due []time.Duration
	at := 0.0
	for {
		at += -math.Log(1-st.Float64()) / rate
		d := time.Duration(at * float64(time.Second))
		if d >= length {
			return due
		}
		due = append(due, d)
	}
}

// OpenLoopResult is what one open-loop phase measured.
type OpenLoopResult struct {
	// Latency has one sample per request sent, in microseconds from the
	// request's due time — not from when it was actually written — so
	// the wait a stall imposes on the requests queued behind it counts
	// (the coordinated-omission fix). At is the due offset.
	Latency []Sample
	// GenLag has one sample per request sent: how late after its due
	// time the request was written, in microseconds.
	GenLag []float64
	// Due counts the arrivals scheduled inside the phase; Backlog those
	// still unsent when the phase ended. A growing backlog means the
	// offered rate is beyond what one connection serves.
	Due     int
	Backlog int
	// Length is the phase length in seconds.
	Length float64
}

// RunOpenLoop offers do(i) at the arrival clock's due times for the
// phase length. The protocol allows one outstanding request per
// connection, so a request whose predecessor is still in flight is
// written the moment the predecessor completes; its latency is still
// counted from when it was due. Requests not yet written when the
// phase ends are the backlog. do reports whether the connection is
// still usable: a failed request is recorded with the latency it took
// to fail (the caller counts it as failed and as missing every limit)
// and ends the phase, because the server closes a connection it sent
// an error frame on.
func RunOpenLoop(due []time.Duration, length time.Duration, do func(i int) bool) OpenLoopResult {
	res := OpenLoopResult{Due: len(due), Length: length.Seconds()}
	res.Latency = make([]Sample, 0, len(due))
	res.GenLag = make([]float64, 0, len(due))
	start := time.Now()
	end := start.Add(length)
	for i, d := range due {
		at := start.Add(d)
		waitUntil(at)
		sent := time.Now()
		if !sent.Before(end) {
			res.Backlog = len(due) - i
			break
		}
		ok := do(i)
		done := time.Now()
		res.GenLag = append(res.GenLag, us(sent.Sub(at)))
		res.Latency = append(res.Latency, Sample{At: d.Seconds(), Value: us(done.Sub(at))})
		if !ok {
			res.Backlog = len(due) - i - 1
			break
		}
	}
	return res
}

// ClosedLoopResult is what one closed-loop phase measured.
type ClosedLoopResult struct {
	// Latency has one sample per completed unit, in microseconds from
	// write to decoded response; At is the completion offset.
	Latency []Sample
	// Length is the measured phase length in seconds (start to the last
	// completion).
	Length float64
}

// RunClosedLoop issues do(i) back to back — the next unit is sent only
// after the previous one completes — until the phase length elapses or
// do reports that it cannot continue.
func RunClosedLoop(length time.Duration, do func(i int) bool) ClosedLoopResult {
	// Sized so the sample slice never grows (and copies) mid-phase.
	res := ClosedLoopResult{Latency: make([]Sample, 0, 1<<16)}
	start := time.Now()
	end := start.Add(length)
	last := start
	for i := 0; last.Before(end); i++ {
		ok := do(i)
		now := time.Now()
		res.Latency = append(res.Latency, Sample{At: now.Sub(start).Seconds(), Value: us(now.Sub(last))})
		last = now
		if !ok {
			break
		}
	}
	res.Length = last.Sub(start).Seconds()
	return res
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
