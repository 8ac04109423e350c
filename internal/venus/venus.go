// Package venus is the event-driven network simulator substituting
// for the Venus flit-level simulator of the paper's methodology
// (§VI-B). It simulates an XGFT (or the ideal crossbar, itself an
// XGFT(1;N;1)) at segment granularity with flit-quantized timing:
//
//   - full-duplex links of configurable bandwidth (default 2 Gb/s),
//   - messages segmented at the adapter (default 1 KB segments) with
//     round-robin interleaving among concurrent messages,
//   - input-buffered switches: per-input-channel buffers of
//     configurable depth, credit-based backpressure, round-robin
//     arbitration among inputs competing for an output,
//   - store-and-forward per segment with configurable wire latency.
//
// The simulation is deterministic: a single discrete-event calendar
// with FIFO ordering among simultaneous events.
package venus

import (
	"fmt"

	"repro/internal/eventq"
	"repro/internal/fifo"
	"repro/internal/xgft"
)

// Config carries the network parameters of the paper's §VI-B model.
type Config struct {
	// LinkBytesPerSec is the link speed; the paper uses 2 Gbit/s.
	LinkBytesPerSec int64
	// SegmentBytes is the adapter segmentation unit (paper: 1 KB).
	SegmentBytes int
	// FlitBytes quantizes transmission times (paper: 8 B flits).
	FlitBytes int
	// BufferSegments is the per-input-channel buffer depth of
	// switches, in segments.
	BufferSegments int
	// WireLatency is the propagation delay of every hop.
	WireLatency eventq.Time
	// CutThrough enables virtual cut-through forwarding: a segment
	// becomes available at the next hop one flit time after its
	// transmission starts instead of after it fully arrives
	// (store-and-forward, the default). Bandwidth and contention are
	// unaffected; per-hop latency shrinks from a full segment to a
	// flit. Used by the latency-model ablation benchmarks.
	CutThrough bool
}

// DefaultConfig returns the paper's parameters: 2 Gb/s links, 1 KB
// segments, 8 B flits, 8-segment input buffers, 32 ns wires.
func DefaultConfig() Config {
	return Config{
		LinkBytesPerSec: 250_000_000, // 2 Gbit/s
		SegmentBytes:    1024,
		FlitBytes:       8,
		BufferSegments:  8,
		WireLatency:     32,
	}
}

func (c Config) validate() error {
	if c.LinkBytesPerSec <= 0 {
		return fmt.Errorf("venus: link speed %d must be positive", c.LinkBytesPerSec)
	}
	if c.SegmentBytes <= 0 {
		return fmt.Errorf("venus: segment size %d must be positive", c.SegmentBytes)
	}
	if c.FlitBytes <= 0 || c.FlitBytes > c.SegmentBytes {
		return fmt.Errorf("venus: flit size %d must be in (0,%d]", c.FlitBytes, c.SegmentBytes)
	}
	if int64(c.FlitBytes)*1_000_000_000 < c.LinkBytesPerSec {
		return fmt.Errorf("venus: a %d B flit at %d B/s takes under 1 ns", c.FlitBytes, c.LinkBytesPerSec)
	}
	if c.BufferSegments <= 0 {
		return fmt.Errorf("venus: buffer depth %d must be positive", c.BufferSegments)
	}
	if c.WireLatency < 0 {
		return fmt.Errorf("venus: negative wire latency")
	}
	return nil
}

// flitTime returns the transmission time of one flit.
func (c Config) flitTime() eventq.Time {
	// ns per flit = FlitBytes / (bytes per ns); computed in integer
	// arithmetic: 1e9 * FlitBytes / LinkBytesPerSec.
	return eventq.Time(int64(c.FlitBytes) * 1_000_000_000 / c.LinkBytesPerSec)
}

// Message is one end-to-end transfer.
type Message struct {
	Src, Dst int
	Bytes    int64
	// Route must connect Src to Dst (empty for Src == Dst).
	Route xgft.Route
	// Tag is caller-defined (MPI tag matching in the replay engine).
	Tag int
	// OnDelivered, if non-nil, fires when the last byte is ejected at
	// the destination adapter.
	OnDelivered func(at eventq.Time)
}

// message is the in-flight state of a Message.
type message struct {
	Message
	id           int
	segsTotal    int
	segsInjected int
	segsEjected  int   // segments whose ejection into the destination adapter ended
	path         []int // directed channel sequence (nil for adaptive)
	lastBytes    int   // size of the final (possibly short) segment
	adaptive     bool
	injectedAt   eventq.Time
	deliveredAt  eventq.Time
}

// segment is one unit of transfer. Segments live in the Sim's slab
// and move by index: a wire or virtual queue holds int32s, so a hop
// stores no pointer and the collector's write barrier stays off the
// event loop. Ejected segments return their index to the free list.
// An adaptive segment's hop state is the same index of the side slab
// Sim.adapt.
type segment struct {
	msg    int32 // message id, the index into Sim.msgs
	flits  int32 // serialization length: the segment's bytes in whole flits, at least one
	hop    int32 // index into msg.path of the channel it waits for / rides
	origin int32 // channel+1 whose downstream buffer it occupies (0 at the source adapter)
}

// directed channel states.
type channel struct {
	id      int
	busy    bool
	credits int  // space left in the downstream input buffer
	sink    bool // downstream is a leaf adapter (infinite credit): the last hop of every route through it
	// queues holds one virtual queue per arbitration class. A switch
	// output sees one class per input that ever fed it; an injection
	// channel sees one per message and retires it with the message's
	// last segment.
	queues []classQueue
	rr     int
	queued int
	// wire holds the segments transmitted and not yet arrived
	// downstream. Every hop of a channel takes the same time from its
	// scheduling instant, so arrivals leave in transmission order and
	// the arrive event needs no argument: a wire is a FIFO. A sink's
	// wire holds only the segments that complete their message.
	wire fifo.Queue[int32]
	// tx is the segment a sink is serializing: it joins the wire at
	// tx-done only if it completes its message.
	tx int32
}

// A channel's events are ops of the Sim's calendar: the channel index
// shifted past a two-bit kind.
const (
	opTxDone = iota // serialization of the current segment ended
	opCredit        // a downstream buffer slot was released
	opArrive        // the oldest segment on the wire landed

	opKindBits = 2
)

// maxChannels keeps every channel's ops below the calendar's closure
// bit.
const maxChannels = 1 << (31 - opKindBits)

// op is the calendar word of one of the channel's events.
func (c *channel) op(kind uint32) uint32 { return uint32(c.id)<<opKindBits | kind }

// classQueue is the virtual queue of one arbitration class.
type classQueue struct {
	class int
	fifo.Queue[int32]
}

// Sim is one simulation instance. Not safe for concurrent use; run
// one Sim per goroutine for parallel sweeps.
type Sim struct {
	Topo *xgft.Topology
	Cfg  Config
	Q    *eventq.Queue

	flit eventq.Time // Cfg.flitTime()
	// creditSlack is ⌊WireLatency/flit⌋+2: a channel starts at most
	// ⌊WireLatency/flit⌋+1 transmissions while a credit travels back to
	// it, so one holding this many credits cannot run out before the
	// credit lands.
	creditSlack int

	chans    []channel // 2*TotalChannels: ups then downs
	segs     []segment
	adapt    []adaptiveState // adapt[k] is segment k's hop state when its message is adaptive
	free     []int32         // indices of the ejected segments
	msgs     []*message      // by id
	inflight int
	done     []*message

	// Stats
	SegmentsMoved uint64
	adaptTie      uint64
}

// New builds a simulator for the topology. The event queue is owned
// by the Sim but exported so coupled engines (internal/dimemas) can
// schedule their own events on the same clock.
func New(t *xgft.Topology, cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := t.TotalChannels()
	if 2*n > maxChannels {
		return nil, fmt.Errorf("venus: %d directed channels exceed the simulator's %d", 2*n, maxChannels)
	}
	s := &Sim{Topo: t, Cfg: cfg, Q: new(eventq.Queue), flit: cfg.flitTime()}
	s.creditSlack = int(cfg.WireLatency/s.flit) + 2
	s.Q.SetDispatch(s.dispatch)
	s.chans = make([]channel, 2*n)
	for i := range s.chans {
		c := &s.chans[i]
		c.id = i
		c.credits = cfg.BufferSegments
		if i >= n {
			// Down channel: sinks into a leaf when its wire is at
			// level 0.
			level, _, _ := t.ChannelOf(i - n)
			c.sink = level == 0
		}
	}
	return s, nil
}

// dispatch runs one channel event off the calendar.
func (s *Sim) dispatch(op uint32) {
	c := &s.chans[op>>opKindBits]
	switch op & (1<<opKindBits - 1) {
	case opTxDone:
		s.txDone(c)
	case opCredit:
		c.credits++
		s.kick(c)
	default:
		s.arrive(c)
	}
}

// upID and downID map wire IDs to directed channel indices.
func (s *Sim) upID(wire int) int   { return wire }
func (s *Sim) downID(wire int) int { return s.Topo.TotalChannels() + wire }

// pathOf compiles a route into its directed channel sequence: the
// ascent from the source, then the descent read top-down from the
// destination's climb.
func (s *Sim) pathOf(r xgft.Route) []int {
	path := make([]int, r.Hops())
	c := s.Topo.Climb(r.Src, r.Dst)
	for l, p := range r.Up {
		up, down := c.Step(l, p)
		path[l], path[len(path)-1-l] = s.upID(up), s.downID(down)
	}
	return path
}

// Inject posts a message at the current simulated time. Messages with
// Src == Dst are delivered after a zero-copy local latency of one
// wire delay without touching the network.
func (s *Sim) Inject(m Message) error {
	if m.Bytes < 0 {
		return fmt.Errorf("venus: negative message size")
	}
	if m.Src != m.Dst {
		if m.Route.Src != m.Src || m.Route.Dst != m.Dst {
			return fmt.Errorf("venus: inject: route endpoints (%d,%d) do not match message (%d,%d)", m.Route.Src, m.Route.Dst, m.Src, m.Dst)
		}
		if err := m.Route.Validate(s.Topo); err != nil {
			return fmt.Errorf("venus: inject: %w", err)
		}
	}
	msg := s.newMessage(m, false)
	if m.Src == m.Dst {
		s.Q.After(s.Cfg.WireLatency, func() {
			msg.deliveredAt = s.Q.Now()
			s.done = append(s.done, msg)
			if msg.OnDelivered != nil {
				msg.OnDelivered(s.Q.Now())
			}
		})
		s.inflight++
		s.Q.After(s.Cfg.WireLatency, func() { s.inflight-- })
		return nil
	}
	msg.path = s.pathOf(m.Route)
	s.segmentMessage(msg)
	s.inflight++
	s.enqueueNextSegment(msg)
	return nil
}

// newMessage registers the in-flight state of m under the next id.
func (s *Sim) newMessage(m Message, adaptive bool) *message {
	msg := &message{Message: m, id: len(s.msgs), injectedAt: s.Q.Now(), adaptive: adaptive}
	s.msgs = append(s.msgs, msg)
	return msg
}

// segmentMessage sets the message's segment count and the size of its
// final segment.
func (s *Sim) segmentMessage(msg *message) {
	seg := int64(s.Cfg.SegmentBytes)
	msg.segsTotal = int((msg.Bytes + seg - 1) / seg)
	if msg.segsTotal == 0 {
		msg.segsTotal = 1 // zero-byte message still sends a header
	}
	msg.lastBytes = int(msg.Bytes - seg*int64(msg.segsTotal-1))
	if msg.lastBytes <= 0 {
		msg.lastBytes = 1 // header flit for empty payloads
	}
}

// nextSegment takes the adapter's next segment of msg, off the free
// list when it has one, and returns its slab index. It may grow the
// slab, so no caller holds a pointer into it across the call.
func (s *Sim) nextSegment(msg *message) int32 {
	var k int32
	if n := len(s.free); n > 0 {
		k = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		k = int32(len(s.segs))
		s.segs = append(s.segs, segment{})
	}
	bytes := s.Cfg.SegmentBytes
	if msg.segsInjected == msg.segsTotal-1 {
		bytes = msg.lastBytes
	}
	flits := (bytes + s.Cfg.FlitBytes - 1) / s.Cfg.FlitBytes
	s.segs[k] = segment{msg: int32(msg.id), flits: int32(max(flits, 1))}
	msg.segsInjected++
	return k
}

// enqueueNextSegment hands the adapter's next segment of msg to the
// injection channel. Only one segment of a message occupies the
// injection queue at a time; the next is enqueued when the previous
// one starts transmission, which keeps per-message order while
// letting round-robin interleave messages fairly. The arbitration
// class is the message ID, giving the paper's round-robin interleaving
// of concurrent messages at the adapter.
func (s *Sim) enqueueNextSegment(msg *message) {
	first := &s.chans[msg.path[0]]
	s.enqueue(first, s.nextSegment(msg), adapterClassBase+msg.id)
	s.kick(first)
}

// adapterClassBase keeps message-ID arbitration classes from
// colliding with channel-ID classes on shared output ports.
const adapterClassBase = 1 << 30

// enqueue places a segment into the channel's virtual queue for its
// arbitration class.
func (s *Sim) enqueue(c *channel, seg int32, class int) {
	qi := 0
	for qi < len(c.queues) && c.queues[qi].class != class {
		qi++
	}
	if qi == len(c.queues) {
		if qi < cap(c.queues) {
			// A retired queue's buffer waits past the end; take it over.
			c.queues = c.queues[:qi+1]
			c.queues[qi].class = class
		} else {
			c.queues = append(c.queues, classQueue{class, fifo.WithCap[int32](s.Cfg.BufferSegments)})
		}
	}
	c.queues[qi].Push(seg)
	c.queued++
}

// retire drops the virtual queue of an arbitration class that will
// never queue again. The queue is empty, so arbitration only ever
// skipped it; removing it in place and stepping rr back over the gap
// leaves the scan order of the remaining classes, and the place where
// new ones join it, exactly as they were.
func (c *channel) retire(class int) {
	for k := range c.queues {
		if c.queues[k].class != class {
			continue
		}
		last := len(c.queues) - 1
		spent := c.queues[k]
		copy(c.queues[k:], c.queues[k+1:])
		c.queues[last] = spent // enqueue reuses its buffer
		c.queues = c.queues[:last]
		if k <= c.rr {
			c.rr-- // may reach -1: the scan then starts at queue 0
		}
		return
	}
}

// leftAdapter runs when a segment starts serializing on its first
// channel: the adapter releases the message's next segment, or, after
// the last one, retires the message's arbitration class (on every
// up-port of the leaf an adaptive message may have used).
func (s *Sim) leftAdapter(c *channel, msg *message) {
	switch {
	case msg.segsInjected < msg.segsTotal && msg.adaptive:
		s.enqueueNextAdaptiveSegment(msg)
	case msg.segsInjected < msg.segsTotal:
		s.enqueueNextSegment(msg)
	case msg.adaptive:
		for p := 0; p < s.Topo.W(0); p++ {
			s.chans[s.upID(s.Topo.UpChannelID(0, msg.Src, p))].retire(adapterClassBase + msg.id)
		}
	default:
		c.retire(adapterClassBase + msg.id)
	}
}

// kick starts a transmission on the channel if it is idle, has
// credit, and has a queued segment. Round-robin scans the virtual
// queues starting after the last served one.
func (s *Sim) kick(c *channel) {
	if c.busy || c.queued == 0 {
		return
	}
	if !c.sink && c.credits == 0 {
		return
	}
	n := len(c.queues)
	for i := 1; i <= n; i++ {
		qi := (c.rr + i) % n
		if c.queues[qi].Empty() {
			continue
		}
		c.rr = qi
		seg := c.queues[qi].Pop()
		c.queued--
		s.transmit(c, seg)
		return
	}
}

// transmit serializes the segment on the channel and schedules its
// arrival downstream. The segment's claim on its current input buffer
// (if any) is released as soon as serialization starts and the credit
// travels back upstream after one wire delay — the standard
// credit-based flow control loop.
//
// Every reader of a channel's credits (kick, pickAdaptive) only asks
// whether they are zero. While the credit travels, the upstream
// channel starts at most creditSlack-1 transmissions, so if it holds
// creditSlack credits now, none of those readers can see zero under
// either timing, and the credit event would only count the credit:
// the credit is counted at once and no event is scheduled.
func (s *Sim) transmit(c *channel, k int32) {
	c.busy = true
	if !c.sink {
		c.credits--
	}
	seg := &s.segs[k]
	if seg.origin != 0 {
		if up := &s.chans[seg.origin-1]; up.credits >= s.creditSlack {
			up.credits++
		} else {
			s.Q.AfterOp(s.Cfg.WireLatency, up.op(opCredit))
		}
		seg.origin = 0
	}
	dur := eventq.Time(seg.flits) * s.flit
	if seg.hop == 0 {
		// May grow the slab: seg is not used past this point.
		s.leftAdapter(c, s.msgs[seg.msg])
	}
	if c.sink {
		c.tx = k
	} else {
		c.wire.Push(k)
	}
	if s.cutsThrough(c) {
		// The head flit reaches the next switch after one flit time
		// plus the wire; the segment can contend for its next output
		// while its tail is still on this wire. The final ejection
		// (delivery) always waits for the tail.
		s.Q.AfterOp(s.flit+s.Cfg.WireLatency, c.op(opArrive))
	}
	s.Q.AfterOp(dur, c.op(opTxDone))
}

// cutsThrough reports whether segments on c arrive a flit after their
// head leaves rather than a wire delay after their tail does.
func (s *Sim) cutsThrough(c *channel) bool { return s.Cfg.CutThrough && !c.sink }

// txDone frees the channel for its next segment and, unless the head
// already cut through, sends the finished one down the wire. A sink
// ejects the segment into the destination adapter here: only the
// segment that completes its message has an arrival to schedule, as
// the others' would only count them and free their slots. Arrivals
// leave in tx-done order, so the last tx-done of a message — counted
// here, not at transmit, because an adaptive message may reach its
// destination over several sinks — is the one whose arrival delivers
// it.
func (s *Sim) txDone(c *channel) {
	c.busy = false
	if c.sink {
		k := c.tx
		msg := s.msgs[s.segs[k].msg]
		if msg.segsEjected++; msg.segsEjected < msg.segsTotal {
			s.SegmentsMoved++
			s.free = append(s.free, k)
			s.kick(c)
			return
		}
		c.wire.Push(k)
	}
	s.kick(c)
	if !s.cutsThrough(c) {
		s.Q.AfterOp(s.Cfg.WireLatency, c.op(opArrive))
	}
}

// arrive lands the oldest segment on from's wire downstream: either it
// completes its message at the destination adapter (a sink is the last
// hop of every route through it) or it queues for its next hop,
// holding a buffer slot of from (seg.origin) until it moves on.
func (s *Sim) arrive(from *channel) {
	k := from.wire.Pop()
	s.SegmentsMoved++
	seg := &s.segs[k]
	msg := s.msgs[seg.msg]
	if from.sink {
		s.free = append(s.free, k)
		msg.deliveredAt = s.Q.Now()
		s.inflight--
		s.done = append(s.done, msg)
		if msg.OnDelivered != nil {
			msg.OnDelivered(s.Q.Now())
		}
		return
	}
	seg.hop++
	seg.origin = int32(from.id) + 1
	var next *channel
	if msg.adaptive {
		next = s.pickAdaptive(&s.adapt[k])
	} else {
		next = &s.chans[msg.path[seg.hop]]
	}
	s.enqueue(next, k, from.id)
	s.kick(next)
}

// Run drains all pending traffic and returns the completion time of
// the last delivery. maxEvents <= 0 means unbounded.
func (s *Sim) Run(maxEvents uint64) (eventq.Time, error) {
	if !s.Q.Run(maxEvents) {
		return 0, fmt.Errorf("venus: event budget %d exhausted with %d messages in flight", maxEvents, s.inflight)
	}
	if s.inflight != 0 {
		return 0, fmt.Errorf("venus: simulation stalled with %d messages in flight (deadlock?)", s.inflight)
	}
	return s.Q.Now(), nil
}

// Delivered returns per-message delivery records in completion order.
func (s *Sim) Delivered() []Delivery {
	out := make([]Delivery, len(s.done))
	for i, m := range s.done {
		out[i] = Delivery{
			Src: m.Src, Dst: m.Dst, Bytes: m.Bytes, Tag: m.Tag,
			InjectedAt: m.injectedAt, DeliveredAt: m.deliveredAt,
		}
	}
	return out
}

// Delivery is the public record of one completed message.
type Delivery struct {
	Src, Dst    int
	Bytes       int64
	Tag         int
	InjectedAt  eventq.Time
	DeliveredAt eventq.Time
}

// InFlight returns the number of undelivered messages.
func (s *Sim) InFlight() int { return s.inflight }
