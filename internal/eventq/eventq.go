// Package eventq provides the discrete-event scheduling core shared
// by the network simulator (internal/venus) and the trace replay
// engine (internal/dimemas): a monotonic clock and a calendar of
// events.
//
// Ordering contract: events execute in ascending (at, seq) order,
// where at is the scheduled time and seq the rank of the call
// (At, After, AtOp or AfterOp) that scheduled the event — earliest
// time first, FIFO among equal times. The order is total and depends
// on nothing else: not on which form scheduled an event, not on which
// container it waits in, not on how many events are pending. The
// containers below are an optimization the contract hides.
//
// An event is an op: a 31-bit word the queue hands to the dispatch
// function its owner installed with SetDispatch. The simulator encodes
// a channel and an event kind in it, so a pending event holds no
// pointer and scheduling one stores none — the collector's write
// barrier never fires on the calendar's hot path. At and After keep
// the callback form for the rare events that need one; the closure
// waits in a slot table and its event carries the slot, marked by the
// op's high bit.
//
// A simulator schedules nearly all of its events at a handful of
// constant delays (a segment's serialization time, the wire latency),
// and because the clock never runs backwards, events scheduled at one
// delay are already sorted by (at, seq) in scheduling order. Each such
// delay gets a lane, a plain FIFO; the next event is the least of the
// non-empty lane heads and the top of a binary heap that takes
// whatever finds no lane. Scheduling into a lane is an append, and
// popping costs a comparison per live lane instead of a sift through a
// heap whose entries tie by the thousand.
package eventq

import (
	"math/bits"

	"repro/internal/fifo"
)

// Time is simulated time in nanoseconds.
type Time int64

// event is one scheduled op.
type event struct {
	at  Time
	seq uint64
	op  uint32
}

// before is the (at, seq) order of the package contract.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// closureOp marks an op that names a slot of the closure table rather
// than an op for the dispatch function; owner ops stay below it.
const closureOp = 1 << 31

// numLanes bounds the delays that get a FIFO of their own. The
// simulator uses three or four (full and short segment serialization,
// wire latency, cut-through head latency); the rest absorb the replay
// engine's compute bursts. The live mask below is one byte, a bit per
// lane.
const numLanes = 8

// lane holds the pending events scheduled at one delay, oldest first.
type lane struct {
	delay Time
	fifo.Queue[event]
}

// Queue is a discrete-event calendar. The zero value is ready to use
// for closures; SetDispatch installs the runner of AtOp/AfterOp ops.
type Queue struct {
	now     Time
	seq     uint64
	ran     uint64
	pending int
	live    uint8 // bit i is set while lanes[i] holds an event
	lanes   [numLanes]lane
	heap    []event

	dispatch func(op uint32)
	fns      []func() // closure slots; an empty slot is nil
	freeFns  []uint32 // indices of the empty slots
}

// Now returns the current simulated time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.pending }

// Processed returns the number of events executed so far (for
// simulator statistics and benchmarks).
func (q *Queue) Processed() uint64 { return q.ran }

// SetDispatch installs the function that runs every op scheduled with
// AtOp or AfterOp. The queue's owner installs it once, before it
// schedules its first op.
func (q *Queue) SetDispatch(fn func(op uint32)) { q.dispatch = fn }

// AtOp schedules op at absolute time t; the dispatch function runs it.
// op must be below 1<<31. Scheduling in the past is a programming
// error and panics: it would silently corrupt causality.
func (q *Queue) AtOp(t Time, op uint32) {
	if op >= closureOp {
		misuse("op out of range")
	}
	q.schedule(t, op)
}

// AfterOp schedules op d nanoseconds from now.
func (q *Queue) AfterOp(d Time, op uint32) { q.AtOp(q.now+d, op) }

// At schedules fn at absolute time t. Scheduling in the past is a
// programming error and panics.
func (q *Queue) At(t Time, fn func()) {
	var slot uint32
	if n := len(q.freeFns); n > 0 {
		slot = q.freeFns[n-1]
		q.freeFns = q.freeFns[:n-1]
		q.fns[slot] = fn
	} else {
		slot = uint32(len(q.fns))
		q.fns = append(q.fns, fn)
	}
	q.schedule(t, closureOp|slot)
}

// After schedules fn d nanoseconds from now.
func (q *Queue) After(d Time, fn func()) { q.At(q.now+d, fn) }

// schedule files one event under the next seq.
func (q *Queue) schedule(t Time, op uint32) {
	if t < q.now {
		misuse("scheduling into the past")
	}
	q.seq++
	q.pending++
	e := event{at: t, seq: q.seq, op: op}
	// The lane for this delay, else an idle lane to re-bind (an empty
	// lane stays sorted whatever delay it takes next), else the heap.
	delay := t - q.now
	for i := range q.lanes {
		if q.lanes[i].delay == delay {
			q.lanes[i].Push(e)
			q.live |= 1 << i
			return
		}
	}
	if q.live != 1<<numLanes-1 {
		i := bits.TrailingZeros8(^q.live)
		q.lanes[i].delay = delay
		q.lanes[i].Push(e)
		q.live |= 1 << i
		return
	}
	q.heap = append(q.heap, e)
	q.up(len(q.heap) - 1)
}

// misuse panics on a programming error of the queue's owner: an op
// that would read as a closure slot, or an event scheduled into the
// past, which would silently corrupt causality.
func misuse(why string) {
	panic("eventq: " + why) //lint:allow banned misuse of the calendar is a programming error, not an input error
}

// heapSrc is next's source index for the heap; lanes are 0..numLanes-1.
const heapSrc = numLanes

// next locates the earliest pending event: the least, by (at, seq), of
// the live lane heads and the heap top. It returns nil when nothing is
// pending.
func (q *Queue) next() (src int, e *event) {
	if len(q.heap) > 0 {
		src, e = heapSrc, &q.heap[0]
	}
	for m := q.live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		if h := q.lanes[i].Front(); e == nil || h.before(e) {
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
		l := &q.lanes[src]
		e = l.Pop()
		if l.Empty() {
			q.live &^= 1 << src
		}
	}
	q.pending--
	q.now = e.at
	q.ran++
	if e.op < closureOp {
		q.dispatch(e.op)
		return
	}
	slot := e.op &^ closureOp
	fn := q.fns[slot]
	q.fns[slot] = nil
	q.freeFns = append(q.freeFns, slot)
	fn()
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

// Run drains the calendar. maxEvents == 0 means unbounded; otherwise
// Run executes at most maxEvents events and reports false if any is
// still pending after them — the guard rail against runaway
// simulations in tests.
func (q *Queue) Run(maxEvents uint64) bool {
	for n := uint64(0); maxEvents == 0 || n < maxEvents; n++ {
		if !q.Step() {
			return true
		}
	}
	return q.pending == 0
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
