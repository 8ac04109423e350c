// Package fifo is the queue under the simulators' inner loops (the
// event calendar's lanes in internal/eventq, the network simulator's
// virtual queues and wires in internal/venus) and under the bounded
// memo's eviction order (internal/memo). Pop advances a head index
// instead of shifting the slice, a drained queue rewinds to the start
// of its buffer, and a queue that never drains reclaims its spent
// prefix before it grows, so a warmed queue neither allocates nor
// copies more than amortized O(1) per element.
package fifo

// Queue is a first-in first-out queue of T. The zero value is an empty
// queue.
type Queue[T any] struct {
	buf  []T
	head int // buf[:head] is spent
}

// WithCap returns an empty queue with room for n elements.
func WithCap[T any](n int) Queue[T] { return Queue[T]{buf: make([]T, 0, n)} }

// Empty reports whether the queue holds no element.
func (q *Queue[T]) Empty() bool { return q.head == len(q.buf) }

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Front returns the oldest element in place. The queue must not be
// empty; the pointer is valid until the next Push or Pop.
func (q *Queue[T]) Front() *T { return &q.buf[q.head] }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		// Full, and more than half of it spent: slide the live part
		// down rather than grow. Each element moves at most once per
		// len/2 pops.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest element. The queue must not be
// empty.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop the reference for the collector
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}
