package venus

import (
	"fmt"

	"repro/internal/eventq"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// Adaptive routing support: the paper's §I discusses adaptive
// algorithms that take local decisions and notes prior results that
// they "are not always better than oblivious algorithms". This file
// provides that comparison point: messages flagged Adaptive choose
// each ascending output port at the moment the segment leaves a
// switch, picking the port with the least backlog (queued segments +
// busy flag). Any up-port below the NCA level is minimal and valid in
// an XGFT (every up-path from the source reaches a common ancestor at
// the NCA level), and the descent stays deterministic, so adaptivity
// never lengthens a route and deadlock freedom is preserved.

// adaptiveState is the per-segment hop tracker used instead of a
// precompiled path, kept in the Sim's side slab under the segment's
// index.
type adaptiveState struct {
	level      int // current node's level
	node       int // current node index
	dst        int
	descending bool
	ncaLevel   int
}

// InjectAdaptive posts a message routed adaptively. OnDelivered and
// the other Message fields behave as in Inject; the Route field is
// ignored.
func (s *Sim) InjectAdaptive(m Message) error {
	if m.Bytes < 0 {
		return fmt.Errorf("venus: negative message size")
	}
	if m.Src == m.Dst {
		return s.Inject(m)
	}
	if m.Src < 0 || m.Src >= s.Topo.Leaves() || m.Dst < 0 || m.Dst >= s.Topo.Leaves() {
		return fmt.Errorf("venus: adaptive endpoints (%d,%d) out of range", m.Src, m.Dst)
	}
	msg := s.newMessage(m, true)
	s.segmentMessage(msg)
	s.inflight++
	s.enqueueNextAdaptiveSegment(msg)
	return nil
}

// enqueueNextAdaptiveSegment releases the adapter's next segment,
// choosing the first ascending channel adaptively.
func (s *Sim) enqueueNextAdaptiveSegment(msg *message) {
	k := s.nextSegment(msg)
	if n := len(s.segs); len(s.adapt) < n {
		s.adapt = append(s.adapt, make([]adaptiveState, n-len(s.adapt))...)
	}
	st := &s.adapt[k]
	*st = adaptiveState{level: 0, node: msg.Src, dst: msg.Dst, ncaLevel: s.Topo.NCALevel(msg.Src, msg.Dst)}
	ch := s.pickAdaptive(st)
	s.enqueue(ch, k, adapterClassBase+msg.id)
	s.kick(ch)
}

// pickAdaptive selects the next directed channel for a segment at its
// current node and advances the state to the node that channel leads
// to.
func (s *Sim) pickAdaptive(st *adaptiveState) *channel {
	t := s.Topo
	if !st.descending && st.level == st.ncaLevel {
		st.descending = true
	}
	if !st.descending {
		// Choose the least-backlogged up port of the current node,
		// breaking ties pseudo-randomly. Deterministic tie-breaking
		// (always the lowest port) makes the "adaptive" choice a
		// regular function of arrival order, which regular patterns
		// like CG's transpose re-align with — the same congruence
		// pathology the paper describes for mod-k, reborn on the
		// descending side. Randomized tie-breaking restores the
		// intended load spreading while keeping runs reproducible.
		w := t.W(st.level)
		bestPort, best := 0, int(^uint(0)>>1)
		s.adaptTie = hashutil.Splitmix64(s.adaptTie)
		offset := int(s.adaptTie % uint64(w))
		for i := 0; i < w; i++ {
			p := (offset + i) % w
			c := &s.chans[s.upID(t.UpChannelID(st.level, st.node, p))]
			load := c.queued
			if c.busy {
				load++
			}
			if !c.sink && c.credits == 0 {
				load += s.Cfg.BufferSegments
			}
			if load < best {
				best = load
				bestPort = p
			}
		}
		wire := t.UpChannelID(st.level, st.node, bestPort)
		st.node = t.Parent(st.level, st.node, bestPort)
		st.level++
		return &s.chans[s.upID(wire)]
	}
	// Deterministic descent towards the destination.
	dstDigit := s.dstDigit(st)
	child := t.Child(st.level, st.node, dstDigit)
	wire := t.UpChannelID(st.level-1, child, t.UpPortOf(st.level-1, st.node))
	st.node = child
	st.level--
	return &s.chans[s.downID(wire)]
}

// dstDigit returns the destination's label digit steering the next
// descent hop.
func (s *Sim) dstDigit(st *adaptiveState) int {
	// digit (level-1) of the destination in the leaf mixed radix.
	d := st.dst
	for j := 0; j < st.level-1; j++ {
		d /= s.Topo.M(j)
	}
	return d % s.Topo.M(st.level-1)
}

// AdaptiveAlgorithmName is the reporting label for adaptive runs.
const AdaptiveAlgorithmName = "adaptive"

// RunPatternAdaptive is RunPattern with per-segment adaptive routing.
func RunPatternAdaptive(t *xgft.Topology, p *pattern.Pattern, cfg Config) (eventq.Time, error) {
	s, err := New(t, cfg)
	if err != nil {
		return 0, err
	}
	for _, f := range p.Flows {
		if err := s.InjectAdaptive(Message{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes}); err != nil {
			return 0, err
		}
	}
	return s.Run(EventBudget(p, cfg))
}

// MeasuredPhasedSlowdownAdaptive sums dependent phases.
func MeasuredPhasedSlowdownAdaptive(t *xgft.Topology, phases []*pattern.Pattern, cfg Config) (float64, error) {
	var net, ref eventq.Time
	for i, p := range phases {
		n, err := RunPatternAdaptive(t, p, cfg)
		if err != nil {
			return 0, fmt.Errorf("venus: adaptive phase %d: %w", i, err)
		}
		r, err := CrossbarTime(p, cfg)
		if err != nil {
			return 0, err
		}
		net += n
		ref += r
	}
	if ref == 0 {
		return 1, nil
	}
	return float64(net) / float64(ref), nil
}
