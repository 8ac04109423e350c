package dimemas

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// Engine replays a trace over a simulated network. One Engine per
// run; not safe for concurrent use.
type Engine struct {
	trace *Trace
	sim   *venus.Sim
	algo  core.Algorithm
	// mapping[r] is the leaf node hosting rank r (the paper maps
	// processes to nodes sequentially).
	mapping []int

	ranks []*rankState

	barrierCount int

	finished int
}

type rankState struct {
	id      int
	ops     []Op
	pc      int
	blocked blockKind

	// Receive matching.
	wantSrc, wantTag int
	arrived          map[msgKey]int // delivered-but-unconsumed counts

	// Send tracking.
	outstanding int          // incomplete ISends
	reqDone     map[int]bool // completed ISend requests
	waitReq     int
}

type blockKind int

const (
	notBlocked blockKind = iota
	blockedCompute
	blockedRecv
	blockedSendDone // blocking send in flight
	blockedWait
	blockedWaitAll
	blockedBarrier
	finishedRank
)

type msgKey struct {
	src, tag int
}

// Config selects the network model of a replay.
type Config struct {
	Net venus.Config
	// Mapping optionally overrides the sequential rank->leaf mapping.
	Mapping []int
}

// NewEngine builds a replay of the trace over the topology with the
// given routing algorithm.
func NewEngine(t *Trace, topo *xgft.Topology, algo core.Algorithm, cfg Config) (*Engine, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.NumRanks()
	if n > topo.Leaves() {
		return nil, fmt.Errorf("dimemas: %d ranks do not fit %d leaves", n, topo.Leaves())
	}
	mapping := cfg.Mapping
	if mapping == nil {
		mapping = make([]int, n)
		for i := range mapping {
			mapping[i] = i
		}
	}
	if len(mapping) != n {
		return nil, fmt.Errorf("dimemas: mapping covers %d ranks, trace has %d", len(mapping), n)
	}
	node2rank := make(map[int]int, n)
	for r, node := range mapping {
		if node < 0 || node >= topo.Leaves() {
			return nil, fmt.Errorf("dimemas: rank %d mapped to node %d out of range", r, node)
		}
		if prev, dup := node2rank[node]; dup {
			return nil, fmt.Errorf("dimemas: ranks %d and %d share node %d", prev, r, node)
		}
		node2rank[node] = r
	}
	sim, err := venus.New(topo, cfg.Net)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		trace:   t,
		sim:     sim,
		algo:    algo,
		mapping: mapping,
		ranks:   make([]*rankState, n),
	}
	for r := range e.ranks {
		e.ranks[r] = &rankState{
			id:      r,
			ops:     t.Ranks[r],
			arrived: make(map[msgKey]int),
			reqDone: make(map[int]bool),
		}
	}
	return e, nil
}

// Run replays the full trace and returns the completion time of the
// last rank. maxEvents <= 0 means unbounded.
func (e *Engine) Run(maxEvents uint64) (eventq.Time, error) {
	for _, rs := range e.ranks {
		e.advance(rs)
	}
	if !e.sim.Q.Run(maxEvents) {
		return 0, fmt.Errorf("dimemas: event budget exhausted (%d ranks finished of %d)", e.finished, len(e.ranks))
	}
	if e.finished != len(e.ranks) {
		return 0, fmt.Errorf("dimemas: replay stalled: %d of %d ranks finished (mismatched sends/receives?)", e.finished, len(e.ranks))
	}
	return e.sim.Q.Now(), nil
}

// advance executes ops of a rank until it blocks or finishes.
func (e *Engine) advance(rs *rankState) {
	for {
		if rs.blocked == finishedRank {
			return
		}
		if rs.pc >= len(rs.ops) {
			rs.blocked = finishedRank
			e.finished++
			return
		}
		op := rs.ops[rs.pc]
		switch o := op.(type) {
		case Compute:
			rs.pc++
			if o.Dur > 0 {
				rs.blocked = blockedCompute
				e.sim.Q.After(o.Dur, func() {
					rs.blocked = notBlocked
					e.advance(rs)
				})
				return
			}
		case Send:
			rs.pc++
			rs.blocked = blockedSendDone
			e.inject(rs, o.Dst, o.Bytes, o.Tag, func() {
				rs.blocked = notBlocked
				e.advance(rs)
			})
			return
		case ISend:
			rs.pc++
			rs.outstanding++
			req := o.Req
			e.inject(rs, o.Dst, o.Bytes, o.Tag, func() {
				rs.outstanding--
				rs.reqDone[req] = true
				switch {
				case rs.blocked == blockedWait && rs.waitReq == req:
					rs.blocked = notBlocked
					e.advance(rs)
				case rs.blocked == blockedWaitAll && rs.outstanding == 0:
					rs.blocked = notBlocked
					e.advance(rs)
				}
			})
		case Recv:
			if e.tryConsume(rs, o.Src, o.Tag) {
				rs.pc++
				continue
			}
			rs.blocked = blockedRecv
			rs.wantSrc, rs.wantTag = o.Src, o.Tag
			return
		case Wait:
			if rs.reqDone[o.Req] {
				rs.pc++
				continue
			}
			rs.blocked = blockedWait
			rs.waitReq = o.Req
			return
		case WaitAll:
			if rs.outstanding == 0 {
				rs.pc++
				continue
			}
			rs.blocked = blockedWaitAll
			return
		case Barrier:
			rs.pc++
			e.barrierCount++
			if e.barrierCount < len(e.ranks) {
				rs.blocked = blockedBarrier
				return
			}
			// Last rank releases everyone. Snapshot the waiters
			// before advancing any of them: a released rank may
			// immediately block on the *next* barrier and must not be
			// re-released by this loop.
			e.barrierCount = 0
			var waiters []*rankState
			for _, other := range e.ranks {
				if other != rs && other.blocked == blockedBarrier {
					waiters = append(waiters, other)
				}
			}
			for _, other := range waiters {
				other.blocked = notBlocked
				e.advance(other)
			}
		default:
			panic(fmt.Sprintf("dimemas: unhandled op %T", op)) //lint:allow banned unreachable unless a new op type is added without a case
		}
	}
}

// inject sends a message through the simulator and invokes onSent
// when the last byte is delivered (MPI synchronous completion).
func (e *Engine) inject(rs *rankState, dstRank int, bytes int64, tag int, onSent func()) {
	srcNode := e.mapping[rs.id]
	dstNode := e.mapping[dstRank]
	m := venus.Message{Src: srcNode, Dst: dstNode, Bytes: bytes, Tag: tag}
	if srcNode != dstNode {
		m.Route = e.algo.Route(srcNode, dstNode)
	}
	srcRank := rs.id
	m.OnDelivered = func(eventq.Time) {
		e.deliver(dstRank, srcRank, tag)
		onSent()
	}
	if err := e.sim.Inject(m); err != nil {
		// Routes were validated at build time; this is a programming
		// error, not an input error.
		panic(fmt.Sprintf("dimemas: inject failed: %v", err)) //lint:allow banned routes validated at build time; failure is a programming error
	}
}

// deliver records a fully-arrived message at the destination rank and
// unblocks a matching Recv.
func (e *Engine) deliver(dstRank, srcRank, tag int) {
	rs := e.ranks[dstRank]
	rs.arrived[msgKey{src: srcRank, tag: tag}]++
	if rs.blocked == blockedRecv && e.tryConsume(rs, rs.wantSrc, rs.wantTag) {
		rs.blocked = notBlocked
		rs.pc++
		e.advance(rs)
	}
}

// tryConsume consumes one arrived message matching (src, tag); src
// may be AnySource.
func (e *Engine) tryConsume(rs *rankState, src, tag int) bool {
	if src != AnySource {
		k := msgKey{src: src, tag: tag}
		if rs.arrived[k] > 0 {
			rs.arrived[k]--
			return true
		}
		return false
	}
	// AnySource: match the arrived message with the lowest source rank,
	// not whichever map iteration yields first — the choice feeds back
	// into later specific-source receives, so it must be deterministic.
	best := msgKey{src: -1}
	for k, n := range rs.arrived {
		if n > 0 && k.tag == tag && (best.src < 0 || k.src < best.src) {
			best = k
		}
	}
	if best.src < 0 {
		return false
	}
	rs.arrived[best]--
	return true
}

// Replay is the one-call convenience: build an engine and run it.
func Replay(t *Trace, topo *xgft.Topology, algo core.Algorithm, cfg Config) (eventq.Time, error) {
	eng, err := NewEngine(t, topo, algo, cfg)
	if err != nil {
		return 0, err
	}
	// Generous event budget proportional to the segment-hop volume,
	// so a genuinely stalled replay fails fast instead of spinning.
	segs := uint64(t.TotalBytes()/int64(cfg.Net.SegmentBytes)) + uint64(t.CountMessages()) + 1
	return eng.Run(segs*2*xgft.MaxHeight*8 + 1_000_000)
}

// ReplayOnCrossbar replays the trace on the ideal single-stage
// crossbar reference network.
func ReplayOnCrossbar(t *Trace, cfg Config) (eventq.Time, error) {
	xb, err := xgft.NewFullCrossbar(t.NumRanks())
	if err != nil {
		return 0, err
	}
	cfg.Mapping = nil // sequential identity on the crossbar
	return Replay(t, xb, core.NewSModK(xb), cfg)
}

// MeasuredSlowdown replays the trace on the topology and on the
// crossbar and returns the ratio — the application-level counterpart
// of the paper's Figs. 2 and 5 Y axis. It is the one-off form: the
// crossbar time depends only on the trace and the network model, so a
// caller scoring many topologies or algorithms on one trace calls
// ReplayOnCrossbar once and divides Replay's results by it.
func MeasuredSlowdown(t *Trace, topo *xgft.Topology, algo core.Algorithm, cfg Config) (float64, error) {
	net, err := Replay(t, topo, algo, cfg)
	if err != nil {
		return 0, err
	}
	ref, err := ReplayOnCrossbar(t, cfg)
	if err != nil {
		return 0, err
	}
	if ref == 0 {
		return 1, nil
	}
	return float64(net) / float64(ref), nil
}
