// Package dimemas is the MPI trace replay engine of the evaluation
// methodology (§VI-B): it reconstructs the temporal behaviour of an
// application from a per-rank operation trace (compute bursts, sends,
// receives, waits, barriers), driving the network simulator
// (internal/venus) for every transfer so that message timing reflects
// routing and contention. It substitutes for the Dimemas simulator
// fed with post-mortem traces (see README.md, "Substitutions and known
// deviations", #3).
package dimemas

import (
	"fmt"

	"repro/internal/eventq"
)

// AnySource matches a receive against any sender (MPI_ANY_SOURCE).
const AnySource = -1

// Op is one trace operation of a rank. The concrete types below are
// the full vocabulary of the replay engine.
type Op interface{ isOp() }

// Compute advances the rank's local clock without network activity.
type Compute struct{ Dur eventq.Time }

// Send is a blocking (synchronous-completion) send: the rank resumes
// when the last byte is delivered. This conservative semantic is what
// separates communication phases in our synthetic traces.
type Send struct {
	Dst   int
	Bytes int64
	Tag   int
}

// ISend is a non-blocking send tracked by a per-rank request number;
// completion is observed by Wait or WaitAll.
type ISend struct {
	Dst   int
	Bytes int64
	Tag   int
	Req   int
}

// Recv blocks until a matching message (by source and tag) has been
// fully delivered. Src may be AnySource.
type Recv struct {
	Src int
	Tag int
}

// Wait blocks until the given ISend request has completed.
type Wait struct{ Req int }

// WaitAll blocks until every outstanding ISend of the rank completed.
type WaitAll struct{}

// Barrier blocks until every rank has reached its matching barrier.
type Barrier struct{}

func (Compute) isOp() {}
func (Send) isOp()    {}
func (ISend) isOp()   {}
func (Recv) isOp()    {}
func (Wait) isOp()    {}
func (WaitAll) isOp() {}
func (Barrier) isOp() {}

// Trace is a complete application trace: one operation list per rank.
//
// A Trace is immutable once an engine holds it. NewEngine keeps the
// per-rank slices, not copies, and engines only read them, so one
// Trace may feed any number of engines, concurrently — a sweep lowers
// its trace once and hands it to every cell. Build or edit a Trace
// before the first NewEngine, never after.
type Trace struct {
	Ranks [][]Op
}

// NumRanks returns the number of ranks in the trace.
func (t *Trace) NumRanks() int { return len(t.Ranks) }

// Validate performs static checks: endpoint ranges, non-negative
// sizes and durations, barrier count consistency.
func (t *Trace) Validate() error {
	n := len(t.Ranks)
	if n == 0 {
		return fmt.Errorf("dimemas: empty trace")
	}
	barriers := -1
	for r, ops := range t.Ranks {
		count := 0
		for i, op := range ops {
			switch o := op.(type) {
			case Compute:
				if o.Dur < 0 {
					return fmt.Errorf("dimemas: rank %d op %d: negative compute", r, i)
				}
			case Send:
				if o.Dst < 0 || o.Dst >= n {
					return fmt.Errorf("dimemas: rank %d op %d: send destination %d out of range", r, i, o.Dst)
				}
				if o.Bytes < 0 {
					return fmt.Errorf("dimemas: rank %d op %d: negative send size", r, i)
				}
			case ISend:
				if o.Dst < 0 || o.Dst >= n {
					return fmt.Errorf("dimemas: rank %d op %d: isend destination %d out of range", r, i, o.Dst)
				}
				if o.Bytes < 0 {
					return fmt.Errorf("dimemas: rank %d op %d: negative isend size", r, i)
				}
			case Recv:
				if o.Src != AnySource && (o.Src < 0 || o.Src >= n) {
					return fmt.Errorf("dimemas: rank %d op %d: recv source %d out of range", r, i, o.Src)
				}
			case Wait, WaitAll:
				// always legal
			case Barrier:
				count++
			default:
				return fmt.Errorf("dimemas: rank %d op %d: unknown op %T", r, i, op)
			}
		}
		if barriers == -1 {
			barriers = count
		} else if count != barriers {
			return fmt.Errorf("dimemas: rank %d has %d barriers, rank 0 has %d", r, count, barriers)
		}
	}
	return nil
}

// CountMessages returns the total number of sends in the trace.
func (t *Trace) CountMessages() int {
	total := 0
	for _, ops := range t.Ranks {
		for _, op := range ops {
			switch op.(type) {
			case Send, ISend:
				total++
			}
		}
	}
	return total
}

// TotalBytes returns the byte volume of all sends.
func (t *Trace) TotalBytes() int64 {
	var total int64
	for _, ops := range t.Ranks {
		for _, op := range ops {
			switch o := op.(type) {
			case Send:
				total += o.Bytes
			case ISend:
				total += o.Bytes
			}
		}
	}
	return total
}
