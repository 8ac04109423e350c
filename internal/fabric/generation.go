package fabric

import (
	"encoding/binary"
	"time"

	"repro/internal/xgft"
)

// PackedUnreachable marks a pair with no surviving minimal path. It
// cannot collide with a real packed route: every real digit is at
// most W(l)-1 <= 254 and the level byte is at most maxHeight, so a
// packed route never has an all-ones byte. The constant is exported
// because packed words are also the store's wire form — the binary
// resolve protocol (internal/wire) ships them verbatim, and clients
// need the sentinel to tell "unreachable" from a route.
const PackedUnreachable = ^uint64(0)

// guidedStride is the guided base's slots a leaf: one per level 0..h
// for any height a fabric accepts, and a power of two, so a lookup
// indexes by a shift and a leaf's words share one 64-byte line.
const guidedStride = maxHeight + 1

// levelShift positions the NCA level in the top byte of a packed
// route, so resolution reads the ascent length straight from the
// word, and a guided base indexes its words by the level instead of
// decoding it.
const levelShift = 56

// Stats describes one generation of the route store.
type Stats struct {
	// Seq is the generation sequence number; 0 is the initial healthy
	// build, each swap increments it.
	Seq uint64
	// Algo is the routing scheme the generation was compiled from.
	Algo string
	// Routes counts the resolvable (non-self, reachable) pairs.
	Routes int
	// Patched counts the routes rerouted around the fault set while the
	// generation was derived: relative to the previous generation for a
	// fault, relative to the winner's healthy table for an optimize swap
	// (0 under a healthy view).
	Patched int
	// Unreachable counts pairs with no surviving minimal path.
	Unreachable int
	// FailedWires and FailedSwitches describe the generation's fault
	// set.
	FailedWires    int
	FailedSwitches int
	// CacheHit reports that the generation was served from a pinned
	// table without rebuilding it: the healthy table of the scheme it
	// installs had been packed by an earlier generation (always false for
	// faults, which derive from the serving table).
	CacheHit bool
	// CertifiedRoutes counts the routes the deadlock gate vouched for
	// in this publish: the ones no earlier generation served, a pinned
	// guided base's counted pair by pair though checked a slot at a
	// time. ExceptionWords counts the words the generation holds apart
	// from its rule (the guided base or held rows of the pinned table it
	// was derived from): the overrides, reroutes and unreachable marks
	// that made them differ.
	CertifiedRoutes int
	ExceptionWords  int
	// BuildTime is the wall time spent deriving and checking the
	// generation before it was swapped in.
	BuildTime time.Duration
	// VerifyTime is the part of BuildTime spent in the deadlock gate.
	VerifyTime time.Duration
}

// Generation is one immutable epoch of the fabric's route store: an
// all-pairs route table in serving form (see routes). Generations are
// never mutated after construction, so any number of Resolve calls can
// read one while the fabric compiles its successor.
type Generation struct {
	routes
	view  *xgft.View
	stats Stats
}

// routes is an all-pairs table in the form generations serve, one packed
// word per (src, dst): a pinned table's rule, and the words that differ
// from it. A guided scheme (S-/D-mod-k and the relabeling family, see
// core.GuideAscent) routes a pair by its guide leaf and NCA level alone,
// so its rule is a guided base of h+1 words a leaf; any other scheme's
// is held rows, every word.
type routes struct {
	n int // leaves
	// guided[leaf*guidedStride+l] is the packed first l ports of the
	// guide leaf's full-height ascent, level 0 being the empty route a
	// self pair resolves to. nil when the rule is held rows.
	guided   []uint64
	bySource bool // the guide is the source, else the destination
	// held[s*n+d] is the pair's word under a scheme that is not guided
	// (a self word is 0, like the base's); nil over a guided base.
	held []uint64
	// exc[excAt[s]:excAt[s+1]] are source s's exceptions — words a
	// reroute, an unreachable mark or an override made differ from the
	// rule — in destination order; excAt is nil when there are none.
	excAt []int32
	exc   []exception
	nca   xgft.NCA // the topology's NCA rule, held here for lookup
	topo  *xgft.Topology
}

// exception is a word a table serves in place of its rule's.
type exception struct {
	dst  int32
	word uint64
}

// word is the packed route s->d of the table: its exception, or the
// rule's word. s and d must be leaves.
//
//repro:hotpath
func (r *routes) word(s, d int) uint64 {
	run := r.run(s)
	if i, ok := search(run, d); ok {
		return run[i].word
	}
	return r.ruleWord(s, d)
}

// search returns where destination d is, or would go, in run — sorted
// by destination — and whether it is there.
//
//repro:hotpath
func search(run []exception, d int) (int, bool) {
	i, j := 0, len(run)
	for i < j {
		if h := int(uint(i+j) >> 1); int(run[h].dst) < d {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(run) && int(run[i].dst) == d
}

// run returns source s's exceptions.
//
//repro:hotpath
func (r *routes) run(s int) []exception {
	if r.excAt == nil {
		return nil
	}
	return r.exc[r.excAt[s]:r.excAt[s+1]]
}

// ruleWord is the rule's word for s->d: the held row's, or the guide's
// at the pair's NCA level.
//
//repro:hotpath
func (r *routes) ruleWord(s, d int) uint64 {
	if r.held != nil {
		return r.held[s*r.n+d]
	}
	return r.guidedWord(s, d)
}

// guidedWord is the guided base's word for s->d: the guide leaf's at
// the pair's NCA level.
//
//repro:hotpath
func (r *routes) guidedWord(s, d int) uint64 {
	guide := d
	if r.bySource {
		guide = s
	}
	return r.guided[guide*guidedStride+r.nca.Level(s, d)]
}

// guidedOnly reports that the table serves its guided base and nothing
// else, so a resolve pass need not ask a pair for an exception.
//
//repro:hotpath
func (r *routes) guidedOnly() bool { return r.held == nil && r.excAt == nil }

// rowOf returns source s's words laid out in buf (len N): the rule's —
// the held row, or the guided base's a range of destinations at a time
// (Topology.NCARanges) rather than a level computation a word — with
// s's exceptions written over them.
func (r *routes) rowOf(s int, buf []uint64) []uint64 {
	if r.held != nil {
		copy(buf, r.held[s*r.n:(s+1)*r.n])
	} else {
		r.topo.NCARanges(s, func(lo, hi, l int) {
			if r.bySource {
				for d, word := lo, r.guided[s*guidedStride+l]; d < hi; d++ {
					buf[d] = word
				}
				return
			}
			for d := lo; d < hi; d++ {
				buf[d] = r.guided[d*guidedStride+l]
			}
		})
	}
	for _, e := range r.run(s) {
		buf[e.dst] = e.word
	}
	return buf
}

// packRoute packs the ascent digits a byte per level with the NCA
// level in the top byte. Safe because New enforces Height <= 7 and
// W <= 255.
func packRoute(r xgft.Route) uint64 {
	p := uint64(len(r.Up)) << levelShift
	for i, port := range r.Up {
		p |= uint64(port) << (8 * uint(i))
	}
	return p
}

// PackedNCALevel returns the ascent length (the NCA level) encoded in
// a packed route. 0 is the empty route of a self pair; callers must
// check PackedUnreachable first.
//
//repro:hotpath
func PackedNCALevel(packed uint64) int { return int(packed >> levelShift) }

// AppendPackedUp appends the packed route's up-ports, lowest level
// first, to dst and returns it — the allocation-free inverse of
// packRoute for clients that decode packed words received off the
// wire.
//
//repro:hotpath
func AppendPackedUp(packed uint64, dst []int) []int {
	l := int(packed >> levelShift)
	for i := 0; i < l; i++ {
		dst = append(dst, int(packed>>(8*uint(i))&0xff))
	}
	return dst
}

// Seq returns the generation sequence number.
func (g *Generation) Seq() uint64 { return g.stats.Seq }

// Stats returns the generation's build statistics.
func (g *Generation) Stats() Stats { return g.stats }

// View returns the generation's fault overlay. The returned view is
// frozen — callers must Clone before mutating.
func (g *Generation) View() *xgft.View { return g.view }

// lookup is the per-pair rule, written once: an endpoint outside the
// leaves → PackedUnreachable, else the table's word — 0 (the empty
// ascent) for a self pair, PackedUnreachable when the fault view left no
// minimal path. Endpoints arrive as uint64 so one compare rejects
// negative ints and the wire's 32-bit values alike. A resolved non-self
// pair — what telemetry counts — is a word neither PackedUnreachable
// nor 0: distinct leaves meet at level >= 1, so a real route's level
// byte is never zero.
//
//repro:hotpath
func (g *Generation) lookup(src, dst uint64) uint64 {
	if max(src, dst) >= uint64(g.n) {
		return PackedUnreachable
	}
	return g.word(int(src), int(dst))
}

// lookupGuided is lookup over a generation that serves its guided base
// and nothing else (guidedOnly): the resolve passes choose it once a
// batch, so the pair loop of a healthy guided table stays inlined and
// tests no exception.
//
//repro:hotpath
func (g *Generation) lookupGuided(src, dst uint64) uint64 {
	if max(src, dst) >= uint64(g.n) {
		return PackedUnreachable
	}
	return g.guidedWord(int(src), int(dst))
}

// Resolve returns the installed route for the pair, decoded. ok is
// false when the pair is out of range or currently unreachable;
// src == dst resolves to the empty route.
//
//repro:hotpath
func (g *Generation) Resolve(src, dst int) (r xgft.Route, ok bool) {
	return unpackedRoute(src, dst, g.lookup(uint64(src), uint64(dst)))
}

// unpackedRoute is the decoded form of one lookup result: the route
// with its ascent in a right-sized slice of its own (nil for a self
// pair), or the zero route and false for PackedUnreachable.
//
//repro:hotpath
func unpackedRoute(src, dst int, packed uint64) (xgft.Route, bool) {
	switch packed {
	case PackedUnreachable:
		return xgft.Route{}, false
	case 0:
		return xgft.Route{Src: src, Dst: dst}, true
	}
	return xgft.Route{Src: src, Dst: dst, Up: AppendPackedUp(packed, make([]int, 0, PackedNCALevel(packed)))}, true
}

// ResolveBatchPacked resolves pairs[i] into out[i] as packed words —
// the store's native encoding, shipped verbatim by the binary resolve
// protocol — and returns how many resolved. out must be at least as
// long as pairs. Out-of-range and unreachable pairs get
// PackedUnreachable; self pairs get 0 (the empty ascent). Nothing is
// decoded, so the call performs zero allocations.
//
//repro:hotpath
func (g *Generation) ResolveBatchPacked(pairs [][2]int, out []uint64) (resolved int) {
	return g.resolvePacked(nil, pairs, out)
}

// resolvePacked is the in-process packed pass: one lookup per pair —
// lookupGuided over a generation that serves its guided base alone,
// lookup otherwise, chosen once for the batch — its word stored, and —
// in the same iteration — the pair counted as resolved and, when tel is
// non-nil and the pair is not a self pair, in the count shard the pass
// holds from its first pair to its last (tally).
//
//repro:hotpath
func (g *Generation) resolvePacked(tel *Telemetry, pairs [][2]int, out []uint64) (resolved int) {
	out = out[:len(pairs)]
	counts := tel.acquire()
	if g.guidedOnly() {
		for i, p := range pairs {
			packed := g.lookupGuided(uint64(p[0]), uint64(p[1]))
			out[i] = packed
			resolved += tally(counts, packed, p[0], p[1])
		}
	} else {
		for i, p := range pairs {
			packed := g.lookup(uint64(p[0]), uint64(p[1]))
			out[i] = packed
			resolved += tally(counts, packed, p[0], p[1])
		}
	}
	tel.release(counts, resolved)
	return resolved
}

// tally is a resolve pass's per-pair count: 1 when packed resolved,
// and — when counts is non-nil and the pair is not a self pair — the
// pair counted in the pass's shard.
//
//repro:hotpath
func tally(counts *countShard, packed uint64, src, dst int) int {
	if packed == PackedUnreachable {
		return 0
	}
	if packed != 0 && counts != nil {
		counts.add(src, dst)
	}
	return 1
}

// appendResolveWire is the same pass in the binary protocol's own byte
// order: pairs holds 8 bytes a pair (big-endian uint32 src, then dst)
// and one big-endian packed word per pair is appended to dst.
//
//repro:hotpath
func (g *Generation) appendResolveWire(tel *Telemetry, pairs, dst []byte) (out []byte, resolved int) {
	count := len(pairs) / 8
	at := len(dst)
	end := at + 8*count
	if cap(dst) < end {
		dst = append(dst[:cap(dst)], make([]byte, end-cap(dst))...)
	}
	dst = dst[:end]
	words := dst[at:]
	counts := tel.acquire()
	if g.guidedOnly() {
		for i := 0; i < count; i++ {
			src, d := wirePair(pairs, i)
			packed := g.lookupGuided(src, d)
			binary.BigEndian.PutUint64(words[8*i:8*i+8:8*i+8], packed)
			resolved += tally(counts, packed, int(src), int(d))
		}
	} else {
		for i := 0; i < count; i++ {
			src, d := wirePair(pairs, i)
			packed := g.lookup(src, d)
			binary.BigEndian.PutUint64(words[8*i:8*i+8:8*i+8], packed)
			resolved += tally(counts, packed, int(src), int(d))
		}
	}
	tel.release(counts, resolved)
	return dst, resolved
}

// wirePair decodes pair i of a binary resolve batch.
//
//repro:hotpath
func wirePair(pairs []byte, i int) (src, dst uint64) {
	p := pairs[8*i : 8*i+8 : 8*i+8]
	return uint64(binary.BigEndian.Uint32(p[0:4])), uint64(binary.BigEndian.Uint32(p[4:8]))
}

// Routes decodes every resolvable non-self route of the generation,
// in (src, dst) order — the full table a subnet manager would
// install. The ascents share one backing arena (each route owns a
// full-capacity subrange), so the call allocates twice whatever the
// table size.
func (g *Generation) Routes() []xgft.Route {
	out := make([]xgft.Route, 0, g.stats.Routes)
	arena := make([]int, 0, g.stats.Routes*g.topo.Height())
	for s := 0; s < g.n; s++ {
		run := g.run(s)
		for d := 0; d < g.n; d++ {
			packed := g.ruleWord(s, d)
			if len(run) > 0 && int(run[0].dst) == d {
				packed, run = run[0].word, run[1:]
			}
			if s == d || packed == PackedUnreachable {
				continue
			}
			start := len(arena)
			arena = AppendPackedUp(packed, arena)
			out = append(out, xgft.Route{Src: s, Dst: d, Up: arena[start:len(arena):len(arena)]})
		}
	}
	return out
}
