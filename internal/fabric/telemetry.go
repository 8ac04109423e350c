package fabric

import (
	"sort"
	"sync/atomic"

	"repro/internal/pattern"
)

// Telemetry is the fabric's live traffic observer: one atomic counter
// per (source, destination) pair, bumped by every resolved non-self
// pair, whatever form the resolve took. The counters are sharded by
// source leaf (each source owns a contiguous row), so concurrent
// resolvers for different pairs never contend on a line beyond false
// sharing inside one row — the hot path stays lock-free, a single
// uncontended atomic add on top of the generation lookup.
//
// The observed counts are the connectivity-matrix view of the paper's
// §III measured instead of declared: SnapshotFlows lowers them into a
// pattern.Pattern whose byte weights are the resolve counts, which is
// exactly the input the pattern-aware optimizer wants.
type Telemetry struct {
	n    int
	rows [][]uint64 // [src][dst] resolve counts, updated atomically
}

// newTelemetry returns zeroed counters for n leaves.
func newTelemetry(n int) *Telemetry {
	t := &Telemetry{n: n, rows: make([][]uint64, n)}
	for s := range t.rows {
		t.rows[s] = make([]uint64, n)
	}
	return t
}

// record bumps the pair's counter. Callers guarantee bounds and
// src != dst (self-pairs carry no network traffic).
//
//repro:hotpath
func (t *Telemetry) record(src, dst int) {
	atomic.AddUint64(&t.rows[src][dst], 1)
}

// Record is RecordN(src, dst, 1). The fabric's resolve forms count on
// their own; this is for feeding a pattern in by hand.
func (t *Telemetry) Record(src, dst int) { t.RecordN(src, dst, 1) }

// RecordN counts n served routes for the pair at once; out-of-range
// and self pairs are ignored. It lets a scheduler or replayer inject
// a whole traffic profile (flow weights and all) into the counters,
// so an optimizer pass can run over declared rather than accumulated
// traffic.
func (t *Telemetry) RecordN(src, dst int, n uint64) {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src == dst || n == 0 {
		return
	}
	atomic.AddUint64(&t.rows[src][dst], n)
}

// Leaves returns the endpoint count the counters cover.
func (t *Telemetry) Leaves() int { return t.n }

// Count returns the recorded resolves for one pair (0 for
// out-of-range pairs).
func (t *Telemetry) Count(src, dst int) uint64 {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n {
		return 0
	}
	return atomic.LoadUint64(&t.rows[src][dst])
}

// Total returns the recorded resolves across all pairs.
func (t *Telemetry) Total() uint64 {
	var total uint64
	for s := 0; s < t.n; s++ {
		row := t.rows[s]
		for d := 0; d < t.n; d++ {
			total += atomic.LoadUint64(&row[d])
		}
	}
	return total
}

// SnapshotFlows lowers the counters into a communication pattern: one
// flow per observed pair, Bytes = resolve count, in (src, dst) order
// — deterministic for a quiesced fabric, so snapshots fingerprint
// stably into the routing-table cache. Counters keep counting. For
// windowed observation run Optimize with Reset, which snapshots and
// zeroes in one pass and loses nothing; a SnapshotFlows followed by a
// separate Reset drops the resolves that land in between.
func (t *Telemetry) SnapshotFlows() *pattern.Pattern { return t.snapshot(false) }

// snapshot is SnapshotFlows, and with reset also Reset, as one pass:
// each non-zero counter is then swapped to zero and the swapped-out
// value is the flow's weight, so every resolve is counted in exactly
// one window — the one whose swap it lands before. A plain atomic load
// picks the cells worth a swap: the matrix holds a thousand counts in
// 65 536 cells, and a count that lands right after a zero load waits
// for the next window.
func (t *Telemetry) snapshot(reset bool) *pattern.Pattern {
	p := pattern.New(t.n)
	for s := 0; s < t.n; s++ {
		row := t.rows[s]
		for d := 0; d < t.n; d++ {
			c := atomic.LoadUint64(&row[d])
			if c > 0 && reset {
				c = atomic.SwapUint64(&row[d], 0)
			}
			if c > 0 {
				p.Add(s, d, int64(c))
			}
		}
	}
	return p
}

// Reset zeroes every counter, starting a fresh observation window; it
// stores only where it loads a count, so it costs a read per cell.
// Counts that land while it runs survive or not by which side of the
// cell's store they fall; callers that need the discarded counts use
// Optimize's Reset instead.
func (t *Telemetry) Reset() {
	for s := 0; s < t.n; s++ {
		row := t.rows[s]
		for d := 0; d < t.n; d++ {
			if atomic.LoadUint64(&row[d]) != 0 {
				atomic.StoreUint64(&row[d], 0)
			}
		}
	}
}

// FlowCount is one pair's observed traffic (for reporting).
type FlowCount struct {
	Src, Dst int
	Count    uint64
}

// TopFlows returns the k heaviest observed pairs, ordered by count
// descending with (src, dst) as the deterministic tie-break.
func (t *Telemetry) TopFlows(k int) []FlowCount {
	var flows []FlowCount
	for s := 0; s < t.n; s++ {
		row := t.rows[s]
		for d := 0; d < t.n; d++ {
			if c := atomic.LoadUint64(&row[d]); c > 0 {
				flows = append(flows, FlowCount{Src: s, Dst: d, Count: c})
			}
		}
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Count != flows[j].Count {
			return flows[i].Count > flows[j].Count
		}
		if flows[i].Src != flows[j].Src {
			return flows[i].Src < flows[j].Src
		}
		return flows[i].Dst < flows[j].Dst
	})
	if k >= 0 && len(flows) > k {
		flows = flows[:k]
	}
	return flows
}
