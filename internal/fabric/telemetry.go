package fabric

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/pattern"
)

// Telemetry is the fabric's live traffic observer: a count per (source,
// destination) pair, bumped by every resolved non-self pair, whatever
// form the resolve took.
//
// Resolvers count in private and readers fold. A resolve pass takes a
// countShard — an n×n array of plain uint32 counts, its own for as long
// as the batch lasts — once per batch, counts each pair with an ordinary
// increment, and lets the shard go when the batch ends. Every reader
// (SnapshotFlows, Optimize's windowed snapshot, Reset, Count, Total,
// TopFlows) first folds what the shards hold into the matrix of atomic
// counters below, which is also where RecordN adds and what Optimize
// sees. The price on the resolve path is one TryLock and one Unlock per
// batch and, per pair, a plain increment plus a one-byte dirty mark:
// stores the core retires without waiting for the line, so a batch's
// cache misses overlap. The design this replaced, one LOCK XADD per pair
// straight into the matrix, serialised them, the lookups' misses with
// the counts': 30.3 µs per 4096 pairs cache-hot against 7.3 µs for the
// lookup alone (4.1x), and about 15 ns a pair in the live daemon against
// 5.6 ns cache-hot. With shards the same pair of benchmarks reads 12.6
// against 7.2 µs (1.8x) and the daemon's resolve pass 15–18 ns a pair
// where it was 23–26. docs/ARCHITECTURE.md ("Telemetry and
// re-optimization") carries the measurements.
//
// A shard is a mutex and what it protects. A pass takes the first shard
// whose TryLock succeeds and never waits; a fold Locks every shard in
// turn, so it waits for the batch counting into one — microseconds — to
// end. Window rule: a reader therefore sees every batch that ended
// before it began, whichever shard counted it and whoever has the shard
// now; a batch that begins or ends while the reader is at work lands in
// this window or the next by which side of its shard's fold (and then
// of its cell's load) it falls, the rule the matrix always had for a
// count that arrives after its cell was read. Every resolve is counted
// in exactly one window.
//
// Memory: the matrix is n² × 8 B; each shard n² × 4 B, and at most
// GOMAXPROCS of them are kept, each allocated the first time that many
// passes overlap. A pass that finds them all taken counts into a spare
// shard of its own, folded when its batch ends and dropped.
//
// The observed counts are the connectivity-matrix view of the paper's
// §III measured instead of declared: SnapshotFlows lowers them into a
// pattern.Pattern whose byte weights are the resolve counts, which is
// exactly the input the pattern-aware optimizer wants.
type Telemetry struct {
	n     int
	cells []uint64 // [src*n+dst] folded counts, updated atomically
	// shards are the kept count shards, GOMAXPROCS slots (as read when
	// the counters were made) filled in order and never emptied.
	shards []atomic.Pointer[countShard]
	// folds counts the shard folds that moved anything, foldedCells the
	// non-zero counts they moved.
	folds, foldedCells atomic.Uint64
}

// lineShift groups a shard's counts into dirty-marked lines of 16: the
// 64 bytes of uint32 counts a cache line holds, so a fold reads only
// the lines some batch wrote.
const lineShift = 4

// foldAfter is the adds a shard may hold before release folds it
// unasked: its counts are 32 bits wide, and one more batch on top of
// 2³¹ adds still cannot wrap a cell.
const foldAfter = 1 << 31

// countShard is one resolve pass's private counts. mu is held by the
// pass counting into the shard, from acquire to release, or by the fold
// emptying it; nothing else touches the other fields.
type countShard struct {
	mu     sync.Mutex
	n      int
	counts []uint32 // [src*n+dst]
	dirty  []uint8  // [cell>>lineShift] != 0: the line holds a count
	// adds bounds the increments since the last fold (every resolved
	// pair of every batch, self pairs included).
	adds uint64
	// spare marks a shard no slot keeps: release folds it.
	spare bool
}

// newTelemetry returns zeroed counters for n leaves.
func newTelemetry(n int) *Telemetry {
	return &Telemetry{n: n, cells: make([]uint64, n*n), shards: make([]atomic.Pointer[countShard], runtime.GOMAXPROCS(0))}
}

// acquire hands a resolve pass a shard, locked, for one batch: the first
// kept shard no other pass or fold holds, a new one for the first empty
// slot, or a spare when every kept shard is taken. A nil Telemetry
// (telemetry disabled) yields a nil shard.
//
//repro:hotpath
func (t *Telemetry) acquire() *countShard {
	if t == nil {
		return nil
	}
	slot := -1
	for i := range t.shards {
		s := t.shards[i].Load()
		if s == nil {
			slot = i
			break
		}
		if s.mu.TryLock() {
			return s
		}
	}
	cells := t.n * t.n
	s := &countShard{n: t.n, counts: make([]uint32, cells), dirty: make([]uint8, (cells+1<<lineShift-1)>>lineShift)}
	s.mu.TryLock() // nobody else has it yet
	s.spare = slot < 0 || !t.shards[slot].CompareAndSwap(nil, s)
	return s
}

// add counts one pair. Callers guarantee bounds and src != dst
// (self-pairs carry no network traffic).
//
//repro:hotpath
func (s *countShard) add(src, dst int) {
	i := src*s.n + dst
	s.counts[i]++
	s.dirty[i>>lineShift] = 1
}

// release ends the batch, during which s took at most adds more
// increments: the shard is unlocked for the next pass and for readers to
// fold, after folding it here when it is a spare or has taken foldAfter
// adds.
//
//repro:hotpath
func (t *Telemetry) release(s *countShard, adds int) {
	if s == nil {
		return
	}
	s.adds += uint64(adds)
	if s.spare || s.adds >= foldAfter {
		t.foldShard(s)
	}
	s.mu.Unlock()
}

// foldShard moves s's counts into the matrix and leaves s zeroed.
// Callers hold s.mu. (Allocation-free and marked for the hot-path
// analyzer because release calls it, on its two cold branches.)
//
//repro:hotpath
func (t *Telemetry) foldShard(s *countShard) {
	if s.adds == 0 {
		return
	}
	moved := uint64(0)
	for line, mark := range s.dirty {
		if mark == 0 {
			continue
		}
		s.dirty[line] = 0
		lo := line << lineShift
		counts := s.counts[lo:min(lo+1<<lineShift, len(s.counts))]
		for i, c := range counts {
			if c != 0 {
				atomic.AddUint64(&t.cells[lo+i], uint64(c))
				counts[i] = 0
				moved++
			}
		}
	}
	s.adds = 0
	if moved > 0 {
		t.folds.Add(1)
		t.foldedCells.Add(moved)
	}
}

// fold brings the matrix up to date with every batch that has ended,
// waiting out the ones in flight; each reader starts with it.
func (t *Telemetry) fold() {
	for i := range t.shards {
		if s := t.shards[i].Load(); s != nil {
			s.mu.Lock()
			t.foldShard(s)
			s.mu.Unlock()
		}
	}
}

// keptShards counts the shards in existence (spares aside).
func (t *Telemetry) keptShards() (kept int) {
	for i := range t.shards {
		if t.shards[i].Load() != nil {
			kept++
		}
	}
	return kept
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
	atomic.AddUint64(&t.cells[src*t.n+dst], n)
}

// Count returns the recorded resolves for one pair (0 for
// out-of-range pairs).
func (t *Telemetry) Count(src, dst int) uint64 {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n {
		return 0
	}
	t.fold()
	return atomic.LoadUint64(&t.cells[src*t.n+dst])
}

// Total returns the recorded resolves across all pairs.
func (t *Telemetry) Total() uint64 {
	t.fold()
	var total uint64
	for i := range t.cells {
		total += atomic.LoadUint64(&t.cells[i])
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

// snapshot is SnapshotFlows, and with reset also Reset, as one pass
// after one fold: each non-zero counter is then swapped to zero and the
// swapped-out value is the flow's weight, so every resolve is counted in
// exactly one window — the one whose swap it lands before. A plain
// atomic load picks the cells worth a swap: the matrix holds a thousand
// counts in 65 536 cells, and a count that lands right after a zero load
// — like a batch that ends right after the fold — waits for the next
// window.
func (t *Telemetry) snapshot(reset bool) *pattern.Pattern {
	t.fold()
	p := pattern.New(t.n)
	for s := 0; s < t.n; s++ {
		row := t.cells[s*t.n : (s+1)*t.n]
		for d := range row {
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
// cell's store they fall, and a batch still in flight survives whole;
// callers that need the discarded counts use Optimize's Reset instead.
func (t *Telemetry) Reset() {
	t.fold()
	for i := range t.cells {
		if atomic.LoadUint64(&t.cells[i]) != 0 {
			atomic.StoreUint64(&t.cells[i], 0)
		}
	}
}

// FlowCount is one pair's observed traffic (for reporting).
type FlowCount struct {
	Src, Dst int
	Count    uint64
}

// TopFlows returns the k heaviest observed pairs (all of them for a
// negative k), ordered by count descending with (src, dst) as the
// deterministic tie-break. It is one snapshot, so a caller that wants
// totals beside the ranking takes every pair and sums: both then
// describe the same instant.
func (t *Telemetry) TopFlows(k int) []FlowCount {
	p := t.SnapshotFlows()
	flows := make([]FlowCount, len(p.Flows))
	for i, fl := range p.Flows {
		flows[i] = FlowCount{Src: fl.Src, Dst: fl.Dst, Count: uint64(fl.Bytes)}
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
