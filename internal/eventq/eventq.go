// Package eventq provides the discrete-event scheduling core shared
// by the network simulator (internal/venus) and the trace replay
// engine (internal/dimemas): a monotonic clock and a calendar of
// callbacks.
//
// Ordering contract: events execute in ascending (at, seq) order,
// where at is the scheduled time and seq the rank of the At/After call
// that scheduled the event — earliest time first, FIFO among equal
// times. The order is total and depends on nothing else: not on which
// container an event waits in, not on how many events are pending. The
// containers below are an optimization the contract hides.
//
// A simulator schedules nearly all of its events at a handful of
// constant delays (a segment's serialization time, the wire latency),
// and because the clock never runs backwards, events scheduled at one
// delay are already sorted by (at, seq) in scheduling order. Each such
// delay gets a lane, a plain FIFO; the next event is the least of the
// lane heads and the top of a binary heap that takes whatever finds no
// lane. Scheduling into a lane is an append, and popping costs a
// comparison per lane instead of a sift through a heap whose entries
// tie by the thousand.
package eventq

import "repro/internal/fifo"

// Time is simulated time in nanoseconds.
type Time int64

// Event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before is the (at, seq) order of the package contract.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// numLanes bounds the delays that get a FIFO of their own. The
// simulator uses three or four (full and short segment serialization,
// wire latency, cut-through head latency); the rest absorb the replay
// engine's compute bursts. Next scans every lane, so the bound is also
// the per-event cost of having lanes at all.
const numLanes = 8

// lane holds the pending events scheduled at one delay, oldest first.
type lane struct {
	delay Time
	fifo.Queue[event]
}

// Queue is a discrete-event calendar. The zero value is ready to use.
type Queue struct {
	now     Time
	seq     uint64
	ran     uint64
	pending int
	lanes   [numLanes]lane
	heap    []event
}

// Now returns the current simulated time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.pending }

// Processed returns the number of events executed so far (for
// simulator statistics and benchmarks).
func (q *Queue) Processed() uint64 { return q.ran }

// At schedules fn at absolute time t. Scheduling in the past is a
// programming error and panics: it would silently corrupt causality.
func (q *Queue) At(t Time, fn func()) {
	if t < q.now {
		panic("eventq: scheduling into the past") //lint:allow banned causality violation is a programming error, not an input error
	}
	q.seq++
	q.pending++
	e := event{at: t, seq: q.seq, fn: fn}
	// The lane for this delay, else an idle lane to re-bind (an empty
	// lane stays sorted whatever delay it takes next), else the heap.
	delay := t - q.now
	idle := -1
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.delay == delay {
			l.Push(e)
			return
		}
		if idle < 0 && l.Empty() {
			idle = i
		}
	}
	if idle >= 0 {
		q.lanes[idle].delay = delay
		q.lanes[idle].Push(e)
		return
	}
	q.heap = append(q.heap, e)
	q.up(len(q.heap) - 1)
}

// After schedules fn d nanoseconds from now.
func (q *Queue) After(d Time, fn func()) { q.At(q.now+d, fn) }

// heapSrc is next's source index for the heap; lanes are 0..numLanes-1.
const heapSrc = numLanes

// next locates the earliest pending event: the least, by (at, seq), of
// the lane heads and the heap top. It returns nil when nothing is
// pending.
func (q *Queue) next() (src int, e *event) {
	if len(q.heap) > 0 {
		src, e = heapSrc, &q.heap[0]
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.Empty() {
			continue
		}
		if h := l.Front(); e == nil || h.before(e) {
			src, e = i, h
		}
	}
	return src, e
}

// take removes and runs the event next located.
func (q *Queue) take(src int) {
	var e event
	if src == heapSrc {
		e = q.popHeap()
	} else {
		e = q.lanes[src].Pop()
	}
	q.pending--
	q.now = e.at
	q.ran++
	e.fn()
}

// Step executes the earliest pending event, advancing the clock.
// It reports whether an event was executed.
func (q *Queue) Step() bool {
	src, e := q.next()
	if e == nil {
		return false
	}
	q.take(src)
	return true
}

// Run drains the calendar. maxEvents <= 0 means unbounded; otherwise
// Run stops (returning false) once the budget is exhausted — the
// guard rail against runaway simulations in tests.
func (q *Queue) Run(maxEvents uint64) bool {
	for n := uint64(0); ; n++ {
		if maxEvents > 0 && n >= maxEvents {
			return false
		}
		if !q.Step() {
			return true
		}
	}
}

// RunUntil executes events with time <= deadline; remaining events
// stay queued and the clock ends at min(deadline, last event time).
func (q *Queue) RunUntil(deadline Time) {
	for {
		src, e := q.next()
		if e == nil || e.at > deadline {
			break
		}
		q.take(src)
	}
	if q.now < deadline {
		q.now = deadline
	}
}

// up sifts the entry at i towards the root by moving a hole: parents
// slide down into it and the entry is written once, where it settles.
func (q *Queue) up(i int) {
	e := q.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = e
}

// popHeap removes the heap's top: the last entry sinks from the root
// through a hole the smaller children slide up into.
func (q *Queue) popHeap() event {
	top := q.heap[0]
	n := len(q.heap) - 1
	e := q.heap[n]
	q.heap[n].fn = nil
	q.heap = q.heap[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.heap[r].before(&q.heap[child]) {
			child = r
		}
		if !q.heap[child].before(&e) {
			break
		}
		q.heap[i] = q.heap[child]
		i = child
	}
	q.heap[i] = e
	return top
}
