// Package xgft models extended generalized fat tree (XGFT) topologies as
// defined by Öhring et al. and used by Rodriguez et al. (CLUSTER 2009).
//
// An XGFT(h; m1..mh; w1..wh) has h+1 levels. Level 0 holds the
// N = m1*m2*...*mh leaf (processing) nodes; levels 1..h hold switches.
// Every non-leaf node at level i has m_i children, and every non-root
// node at level i has w_{i+1} parents.
//
// Throughout this package levels are 0-indexed the same way as the
// paper (leaves at level 0, roots at level h), but the parameter
// vectors are 0-indexed slices: M[i] is the paper's m_{i+1} and
// W[i] is the paper's w_{i+1}.
//
// Node identity is (level, index) with index a mixed-radix number over
// the node's label digits (digit h-1 most significant). The label of a
// node at level l has digits j=0..h-1 where digits j < l are W-digits
// (range [0, W[j])) and digits j >= l are M-digits (range [0, M[j])),
// exactly the <M_h .. M_{l+1}, W_l .. W_1> labels of the paper's
// Table I.
package xgft

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// MaxHeight bounds the height accepted by New. Realistic fat trees have
// h <= 6; the bound only guards against absurd allocations.
const MaxHeight = 16

// Topology is an immutable description of an XGFT(h; m...; w...).
type Topology struct {
	h int
	m []int // m[i] = paper m_{i+1}: children per node at level i+1
	w []int // w[i] = paper w_{i+1}: parents per node at level i

	leaves     int   // product of all m[i]
	nodesAt    []int // nodesAt[l] = number of nodes at level l
	upChanAt   []int // upChanAt[l] = number of up channels leaving level l
	upChanBase []int // prefix sums of upChanAt for flat channel IDs
	totalUp    int
	// parentOf[c] is the index (one level up) of the node the up channel
	// c arrives at. Climb.Step, every route walk's hop, reads it instead
	// of computing parentIndex's three divisions.
	parentOf []int32
	// nca is the leaves' NCA rule, tabulated once (see NCA).
	nca NCA
}

// New validates the parameter vectors and constructs the topology.
// m and w must both have length h; every m_i >= 1 and w_i >= 1. It
// tabulates the parent of every up channel and the bit-field label of
// every leaf, so it takes time and memory proportional to
// TotalChannels (four bytes a channel) plus Leaves (eight bytes a leaf).
func New(h int, m, w []int) (*Topology, error) {
	if h < 1 || h > MaxHeight {
		return nil, fmt.Errorf("xgft: height %d out of range [1,%d]", h, MaxHeight)
	}
	if len(m) != h || len(w) != h {
		return nil, fmt.Errorf("xgft: need %d m-parameters and %d w-parameters, got %d and %d", h, h, len(m), len(w))
	}
	leaves := 1
	for i, mi := range m {
		if mi < 1 {
			return nil, fmt.Errorf("xgft: m[%d]=%d must be >= 1", i, mi)
		}
		if leaves > (1<<31)/mi {
			return nil, errors.New("xgft: too many leaves (overflow)")
		}
		leaves *= mi
	}
	for i, wi := range w {
		if wi < 1 {
			return nil, fmt.Errorf("xgft: w[%d]=%d must be >= 1", i, wi)
		}
	}
	t := &Topology{
		h:      h,
		m:      append([]int(nil), m...),
		w:      append([]int(nil), w...),
		leaves: leaves,
	}
	// Every count is checked against the int32 bound before anything
	// is allocated: a spec comes from outside the program, and an
	// overflowing product would wrap to a length make refuses.
	t.nodesAt = make([]int, h+1)
	t.upChanAt = make([]int, h)
	t.upChanBase = make([]int, h+1)
	for l := 0; l <= h; l++ {
		n := 1
		for j := 0; j < h; j++ {
			n = boundedMul(n, t.digitBase(l, j))
		}
		t.nodesAt[l] = n
		if l < h {
			t.upChanAt[l] = boundedMul(n, t.w[l])
			t.upChanBase[l+1] = min(t.upChanBase[l]+t.upChanAt[l], math.MaxInt32+1)
		}
	}
	t.totalUp = t.upChanBase[h]
	if t.totalUp > math.MaxInt32 || t.nodesAt[h] > math.MaxInt32 {
		return nil, errors.New("xgft: too many channels (overflow)")
	}
	t.parentOf = make([]int32, t.totalUp)
	for l := 0; l < h; l++ {
		for idx := 0; idx < t.nodesAt[l]; idx++ {
			for p := 0; p < t.w[l]; p++ {
				t.parentOf[t.UpChannelID(l, idx, p)] = int32(t.parentIndex(l, idx, p))
			}
		}
	}
	t.nca = newNCA(t)
	return t, nil
}

// NCA is a topology's nearest-common-ancestor rule over its leaves, in
// a value small enough to copy into a structure that asks it once per
// pair (a route store's lookup reads it without reaching through the
// topology). leafBits[x] is leaf x's label with every M-digit in a bit
// field of its own, ceil(log2 m_j) bits wide, digit 0 lowest; ofLen[b]
// is the level whose digit owns bit b-1 (0 for b = 0). Two leaves' NCA
// level is then one XOR, one bit length and one table read: the highest
// differing bit lies in the highest differing digit. The fields take
// fewer than 64 bits because leaves <= 2^31 and ceil(log2 m) <=
// 1.3 log2 m for m >= 2. A digit with m_j = 1 gets no bits: it never
// differs.
type NCA struct {
	leafBits []uint64
	ofLen    [65]uint8
}

// boundedMul returns a*b for positive a and b, saturated at
// math.MaxInt32+1 so that a product past the int32 bound stays past it.
func boundedMul(a, b int) int {
	if a > math.MaxInt32/b {
		return math.MaxInt32 + 1
	}
	return a * b
}

// newNCA tabulates the rule for t's leaves.
func newNCA(t *Topology) NCA {
	var r NCA
	var offset [MaxHeight + 1]int
	for j := 0; j < t.h; j++ {
		width := bits.Len(uint(t.m[j] - 1))
		offset[j+1] = offset[j] + width
		for b := offset[j] + 1; b <= offset[j+1]; b++ {
			r.ofLen[b] = uint8(j + 1)
		}
	}
	r.leafBits = make([]uint64, t.leaves)
	for x := range r.leafBits {
		word, rest := uint64(0), x
		for j := 0; j < t.h; j++ {
			word |= uint64(rest%t.m[j]) << offset[j]
			rest /= t.m[j]
		}
		r.leafBits[x] = word
	}
	return r
}

// Level is Topology.NCALevel: the level of the nearest common ancestors
// of leaves s and d, 0 when s == d. Both must be leaves, in
// [0, Leaves()): callers check the range (an index past it panics).
//
//repro:hotpath
func (r *NCA) Level(s, d int) int {
	return int(r.ofLen[bits.Len64(r.leafBits[s]^r.leafBits[d])])
}

// MustNew is New that panics on error; intended for tests and literals
// with compile-time-known good parameters.
func MustNew(h int, m, w []int) *Topology {
	t, err := New(h, m, w)
	if err != nil {
		panic(err) //lint:allow banned Must-constructor contract: callers pass compile-time-known parameters
	}
	return t
}

// NewKaryNTree builds the k-ary n-tree XGFT(n; k,...,k; 1,k,...,k):
// N = k^n leaves and n*k^(n-1) switches, full bisection bandwidth.
func NewKaryNTree(k, n int) (*Topology, error) {
	if k < 1 || n < 1 {
		return nil, fmt.Errorf("xgft: invalid k-ary n-tree parameters k=%d n=%d", k, n)
	}
	m := make([]int, n)
	w := make([]int, n)
	for i := range m {
		m[i] = k
		w[i] = k
	}
	w[0] = 1
	return New(n, m, w)
}

// NewSlimmedTree builds XGFT(2; m1,m2; 1,w2): the progressively slimmed
// two-level trees of the paper's evaluation (Figs. 2, 4, 5). With
// m1=m2=16 and w2=16 this is the full 16-ary 2-tree; w2 < 16 slims it.
func NewSlimmedTree(m1, m2, w2 int) (*Topology, error) {
	return New(2, []int{m1, m2}, []int{1, w2})
}

// NewFullCrossbar models the paper's ideal single-stage crossbar
// reference network as XGFT(1; n; 1): one switch, every leaf one
// injection and one ejection channel, no internal contention.
func NewFullCrossbar(n int) (*Topology, error) {
	return New(1, []int{n}, []int{1})
}

// Height returns h: the level of the root switches.
//
//repro:hotpath
func (t *Topology) Height() int { return t.h }

// Leaves returns the number of processing (level-0) nodes.
//
//repro:hotpath
func (t *Topology) Leaves() int { return t.leaves }

// M returns the paper's m_{i+1} (children per level-(i+1) node).
func (t *Topology) M(i int) int { return t.m[i] }

// W returns the paper's w_{i+1} (parents per level-i node).
func (t *Topology) W(i int) int { return t.w[i] }

// Ms returns a copy of the child-count vector (Ms()[i] = m_{i+1}).
func (t *Topology) Ms() []int { return append([]int(nil), t.m...) }

// Ws returns a copy of the parent-count vector (Ws()[i] = w_{i+1}).
func (t *Topology) Ws() []int { return append([]int(nil), t.w...) }

// NodesAt returns the number of nodes at level l (the paper's N^l).
func (t *Topology) NodesAt(l int) int { return t.nodesAt[l] }

// InnerSwitches computes the paper's Eq. (1): the total number of
// switches on levels 1..h.
func (t *Topology) InnerSwitches() int {
	total := 0
	for l := 1; l <= t.h; l++ {
		total += t.nodesAt[l]
	}
	return total
}

// IsKaryNTree reports whether the topology is a (full-bisection)
// k-ary n-tree and, if so, returns k.
func (t *Topology) IsKaryNTree() (k int, ok bool) {
	k = t.m[0]
	if t.w[0] != 1 {
		return 0, false
	}
	for i := 0; i < t.h; i++ {
		if t.m[i] != k {
			return 0, false
		}
		if i > 0 && t.w[i] != k {
			return 0, false
		}
	}
	return k, true
}

// IsSlimmed reports whether some level has fewer parents than children
// below it would need for full bisection (w_{i+1} < m_i for i >= 1),
// making the network blocking.
func (t *Topology) IsSlimmed() bool {
	for i := 1; i < t.h; i++ {
		if t.w[i] < t.m[i-1] {
			return true
		}
	}
	return false
}

// String renders the standard XGFT(h; m...; w...) notation.
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "XGFT(%d;", t.h)
	for i, mi := range t.m {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", mi)
	}
	b.WriteByte(';')
	for i, wi := range t.w {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", wi)
	}
	b.WriteByte(')')
	return b.String()
}

// digitBase returns the radix of digit j for a node at level l.
func (t *Topology) digitBase(level, j int) int {
	if j < level {
		return t.w[j]
	}
	return t.m[j]
}

// Label decodes the index of a node at the given level into its label
// digits, least significant (the paper's M_1/W_1) first.
func (t *Topology) Label(level, index int) []int {
	d := make([]int, t.h)
	t.LabelInto(level, index, d)
	return d
}

// LabelInto is Label without allocation; d must have length h.
func (t *Topology) LabelInto(level, index int, d []int) {
	for j := 0; j < t.h; j++ {
		base := t.digitBase(level, j)
		d[j] = index % base
		index /= base
	}
}

// Index encodes label digits (least significant first) of a node at
// the given level back into its index. Digits out of range panic via
// checkDigits in debug paths; Index itself trusts its input.
func (t *Topology) Index(level int, d []int) int {
	idx := 0
	for j := t.h - 1; j >= 0; j-- {
		idx = idx*t.digitBase(level, j) + d[j]
	}
	return idx
}

// FormatLabel renders a label the way the paper's Table I does:
// <D_h, ..., D_1> with most significant digit first.
func (t *Topology) FormatLabel(level, index int) string {
	d := t.Label(level, index)
	var b strings.Builder
	b.WriteByte('<')
	for j := t.h - 1; j >= 0; j-- {
		if j < t.h-1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d[j])
	}
	b.WriteByte('>')
	return b.String()
}

// Parent returns the index (at level+1) of the parent reached from the
// node (level, index) through up-port p in [0, W(level)).
//
//repro:hotpath
func (t *Topology) Parent(level, index, p int) int {
	return int(t.parentOf[t.upChanBase[level]+index*t.w[level]+p])
}

// parentIndex is Parent's arithmetic definition, which New tabulates
// into parentOf.
func (t *Topology) parentIndex(level, index, p int) int {
	// Going up replaces digit `level` (an M-digit of radix m[level])
	// with the W-digit p. Recompute the mixed-radix index with the
	// changed radix at position `level`.
	lowBase := 1
	for j := 0; j < level; j++ {
		lowBase *= t.w[j]
	}
	low := index % lowBase
	rest := index / lowBase // digits level.. with m[level] next
	high := rest / t.m[level]
	return (high*t.w[level]+p)*lowBase + low
}

// Child returns the index (at level-1) of the child reached from the
// node (level, index) through down-port c in [0, M(level-1)).
func (t *Topology) Child(level, index, c int) int {
	j := level - 1 // digit being replaced: W-digit w[j] -> M-digit c
	lowBase := 1
	for i := 0; i < j; i++ {
		lowBase *= t.w[i]
	}
	low := index % lowBase
	rest := index / lowBase
	high := rest / t.w[j]
	return (high*t.m[j]+c)*lowBase + low
}

// LeavesUnder returns the half-open range [lo, hi) of leaves that have
// the node (level, index) among their ancestors (the node itself at
// level 0): the leaves whose M-digits from position level up equal the
// node's. A minimal route can only cross a wire on its source's or its
// destination's ancestor chain, so these are the endpoints a fault at
// the node can affect.
func (t *Topology) LeavesUnder(level, index int) (lo, hi int) {
	wBase, span := 1, 1
	for j := 0; j < level; j++ {
		wBase *= t.w[j]
		span *= t.m[j]
	}
	lo = index / wBase * span
	return lo, lo + span
}

// UpPortOf returns the up-port on child (at level) that leads to the
// given parent (at level+1), i.e. the parent's digit at position level.
func (t *Topology) UpPortOf(level, parentIndex int) int {
	lowBase := 1
	for j := 0; j < level; j++ {
		lowBase *= t.w[j]
	}
	return (parentIndex / lowBase) % t.w[level]
}

// DownPortOf returns the down-port on a parent at level+1 that leads
// to the given child (at level), i.e. the child's digit at position
// level.
func (t *Topology) DownPortOf(level, childIndex int) int {
	lowBase := 1
	for j := 0; j < level; j++ {
		lowBase *= t.w[j]
	}
	return (childIndex / lowBase) % t.m[level]
}

// NCALevel returns the level of the nearest common ancestors of two
// distinct leaves: one plus the highest digit position at which their
// labels differ. For s == d it returns 0. Both must be leaves, in
// [0, Leaves()): callers check the range (an index past it panics).
// The rule is division-free — the XOR of the two leaves' bit-field
// labels, its bit length, and the level that bit belongs to (see NCA)
// — because a census, a table build and every resolve of a guided
// route store ask it once per pair.
//
//repro:hotpath
func (t *Topology) NCALevel(s, d int) int { return t.nca.Level(s, d) }

// NCA returns the topology's NCA rule as a value of its own, for the
// structures that ask it per pair; Level of it is NCALevel.
func (t *Topology) NCA() NCA { return t.nca }

// NCARanges calls fn(lo, hi, level) for every range [lo, hi) of
// leaves that meet s at one NCA level: s itself at level 0 first, then
// for each level l = 1..h the leaves under s's level-l ancestor outside
// its level-(l-1) subtree, at most two ranges a level (a level with
// m = 1 has none). It is NCALevel over a whole row — NCALevel(s, d) is
// the level of the range holding d — for callers that visit every
// destination of a source. s must be a leaf.
func (t *Topology) NCARanges(s int, fn func(lo, hi, level int)) {
	lo, hi := s, s+1
	fn(lo, hi, 0)
	span := 1
	for l := 1; l <= t.h; l++ {
		span *= t.m[l-1]
		start := s - s%span
		if start < lo {
			fn(start, lo, l)
		}
		if end := start + span; hi < end {
			fn(hi, end, l)
		}
		lo, hi = start, start+span
	}
}

// NCACount returns how many distinct NCAs a pair with NCA level l can
// choose from: the product w_1*...*w_l of the free W-digits.
func (t *Topology) NCACount(l int) int {
	n := 1
	for j := 0; j < l; j++ {
		n *= t.w[j]
	}
	return n
}

// NCAIndex returns the index (at level l = len(up) = NCALevel) of the
// NCA reached from leaf s by taking up-ports up[0..l-1].
func (t *Topology) NCAIndex(s int, up []int) int {
	c := t.Climb(s, s)
	for l, p := range up {
		c.Step(l, p)
	}
	nca, _ := c.Nodes()
	return nca
}

// UpChannelID flat-numbers the up channel leaving (level, index)
// through port p; the same ID also identifies the paired down channel
// (parent -> child over the same wire). IDs are dense in
// [0, TotalChannels()).
//
//repro:hotpath
func (t *Topology) UpChannelID(level, index, p int) int {
	return t.upChanBase[level] + index*t.w[level] + p
}

// ChannelOf decodes a flat channel ID back into (level, index, port)
// where index is the lower (child-side) endpoint.
func (t *Topology) ChannelOf(id int) (level, index, p int) {
	level = t.ChannelLevel(id)
	id -= t.upChanBase[level]
	return level, id / t.w[level], id % t.w[level]
}

// ChannelLevel returns ChannelOf's level without its divisions.
//
//repro:hotpath
func (t *Topology) ChannelLevel(id int) int {
	level := 0
	for level+1 < t.h && id >= t.upChanBase[level+1] {
		level++
	}
	return level
}

// TotalChannels returns the number of distinct child-parent wire pairs
// (each carrying one up and one down channel).
func (t *Topology) TotalChannels() int { return t.totalUp }

// ChannelsAt returns the number of up channels leaving level l.
func (t *Topology) ChannelsAt(l int) int { return t.upChanAt[l] }

// Equal reports structural equality of two topologies.
func (t *Topology) Equal(o *Topology) bool {
	if t.h != o.h {
		return false
	}
	for i := 0; i < t.h; i++ {
		if t.m[i] != o.m[i] || t.w[i] != o.w[i] {
			return false
		}
	}
	return true
}
