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
	// faults, which derive from the serving rows).
	CacheHit bool
	// CertifiedRoutes counts the routes the deadlock gate vouched for
	// in this publish: the ones no earlier generation served, a pinned
	// guided base's counted pair by pair though checked a slot at a
	// time. SharedRows counts the source rows the generation holds no
	// copy of: served from the guided base (no row at all), or the same
	// arrays as the table it was derived from or as its predecessor's.
	// The rest were materialized or cloned to take an override or a
	// reroute.
	CertifiedRoutes int
	SharedRows      int
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
// word per (src, dst). A guided scheme (S-/D-mod-k and the relabeling
// family, see core.GuideAscent) routes a pair by its guide leaf and NCA
// level alone, so its table is a guided base of h+1 words a leaf, and a
// source holds a row of its own only where a reroute or an override
// made it differ. Any other scheme holds every row.
type routes struct {
	// rows[src][dst] is a held row's packed word; a nil row is the guided
	// base's. A held row's self word is 0, like the base's. held reports
	// that some source holds one, so a lookup in a table that holds none
	// never reads rows.
	rows [][]uint64
	held bool
	// guided[leaf*guidedStride+l] is the packed first l ports of the
	// guide leaf's full-height ascent, level 0 being the empty route a
	// self pair resolves to. nil when the scheme is not guided.
	guided   []uint64
	bySource bool     // the guide is the source, else the destination
	nca      xgft.NCA // the topology's NCA rule, held here for lookup
	topo     *xgft.Topology
}

// word is the packed route s->d of the table: the held row's word, or
// the guide's at the pair's NCA level. s and d must be leaves.
//
//repro:hotpath
func (r *routes) word(s, d int) uint64 {
	if r.held {
		if row := r.rows[s]; row != nil {
			return row[d]
		}
	}
	guide := d
	if r.bySource {
		guide = s
	}
	return r.guided[guide*guidedStride+r.nca.Level(s, d)]
}

// rowOf returns source s's words: its held row, or the guided base's
// laid out in buf (len N), a range of destinations at a time
// (Topology.NCARanges) rather than a level computation a word.
func (r *routes) rowOf(s int, buf []uint64) []uint64 {
	if row := r.rows[s]; row != nil {
		return row
	}
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
	return buf
}

// heldRow returns a row of source s's words that the caller owns.
func (r *routes) heldRow(s int) []uint64 {
	row := make([]uint64, len(r.rows))
	if held := r.rows[s]; held != nil {
		copy(row, held)
		return row
	}
	return r.rowOf(s, row)
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
	if max(src, dst) >= uint64(len(g.rows)) {
		return PackedUnreachable
	}
	return g.word(int(src), int(dst))
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

// resolvePacked is the in-process packed pass: one lookup per pair,
// its word stored, and — in the same iteration — the pair counted as
// resolved and, when tel is non-nil and the pair is not a self pair,
// in the count shard the pass holds from its first pair to its last.
//
//repro:hotpath
func (g *Generation) resolvePacked(tel *Telemetry, pairs [][2]int, out []uint64) (resolved int) {
	out = out[:len(pairs)]
	counts := tel.acquire()
	for i, p := range pairs {
		packed := g.lookup(uint64(p[0]), uint64(p[1]))
		out[i] = packed
		if packed != PackedUnreachable {
			resolved++
			if packed != 0 && counts != nil {
				counts.add(p[0], p[1])
			}
		}
	}
	tel.release(counts, resolved)
	return resolved
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
	for i := 0; i < count; i++ {
		p := pairs[8*i : 8*i+8 : 8*i+8]
		src, d := uint64(binary.BigEndian.Uint32(p[0:4])), uint64(binary.BigEndian.Uint32(p[4:8]))
		packed := g.lookup(src, d)
		binary.BigEndian.PutUint64(words[8*i:8*i+8:8*i+8], packed)
		if packed != PackedUnreachable {
			resolved++
			if packed != 0 && counts != nil {
				counts.add(int(src), int(d))
			}
		}
	}
	tel.release(counts, resolved)
	return dst, resolved
}

// Routes decodes every resolvable non-self route of the generation,
// in (src, dst) order — the full table a subnet manager would
// install. The ascents share one backing arena (each route owns a
// full-capacity subrange), so the call allocates twice whatever the
// table size.
func (g *Generation) Routes() []xgft.Route {
	out := make([]xgft.Route, 0, g.stats.Routes)
	arena := make([]int, 0, g.stats.Routes*g.topo.Height())
	for s := range g.rows {
		for d := range g.rows {
			packed := g.word(s, d)
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
