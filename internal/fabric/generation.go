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

// levelShift positions the NCA level in the top byte of a packed
// route, so resolution reads the ascent length straight from the
// word instead of recomputing it from the leaf labels (h integer
// divisions per endpoint) on every lookup.
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
	// CertifiedRoutes counts the routes added to the fabric's
	// certificate for this publish: the ones no earlier generation
	// served. SharedRows counts the source rows that are the same arrays
	// as the table the generation was derived from or as its
	// predecessor's (the rest were cloned to take an override or a
	// reroute).
	CertifiedRoutes int
	SharedRows      int
	// BuildTime is the wall time spent deriving and certifying the
	// generation before it was swapped in.
	BuildTime time.Duration
	// VerifyTime is the part of BuildTime spent in the certification
	// gate.
	VerifyTime time.Duration
}

// Generation is one immutable epoch of the fabric's route store: an
// all-pairs route table sharded by source leaf, each shard one packed
// word per destination. Generations are never mutated after
// construction, so any number of Resolve calls can read one while the
// fabric compiles its successor.
type Generation struct {
	topo   *xgft.Topology
	view   *xgft.View
	shards [][]uint64 // [src][dst]: ascent digits packed a byte per level
	stats  Stats
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

// packedRouteOK is View.RouteOK over a packed route without
// materializing it — the fault-repair path checks every pair, so the
// common (healthy-route) case must not allocate.
func packedRouteOK(v *xgft.View, t *xgft.Topology, src, dst int, packed uint64) bool {
	l := int(packed >> levelShift)
	for _, idx := range [2]int{src, dst} { // the ascent, then the descent read upwards
		for i := 0; i < l; i++ {
			ch := t.UpChannelID(i, idx, int(packed>>(8*uint(i))&0xff))
			if v.WireFailed(ch) {
				return false
			}
			idx = t.ChannelParent(ch)
		}
	}
	return true
}

// unpackRoute decodes a packed ascent back into per-level up-ports
// (the inverse of packRoute for a reachable pair).
//
//repro:hotpath
func unpackRoute(packed uint64) []int {
	l := int(packed >> levelShift)
	up := make([]int, l)
	for i := 0; i < l; i++ {
		up[i] = int(packed >> (8 * uint(i)) & 0xff)
	}
	return up
}

// PackedNCALevel returns the ascent length (the NCA level) encoded in
// a packed route. 0 is the empty route of a self pair; callers must
// check PackedUnreachable first.
func PackedNCALevel(packed uint64) int { return int(packed >> levelShift) }

// AppendPackedUp appends the packed route's up-ports, lowest level
// first, to dst and returns it — the allocation-free inverse of
// packRoute for clients that decode packed words received off the
// wire.
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

// Topology returns the healthy topology the fabric serves.
func (g *Generation) Topology() *xgft.Topology { return g.topo }

// View returns the generation's fault overlay. The returned view is
// frozen — callers must Clone before mutating.
func (g *Generation) View() *xgft.View { return g.view }

// Resolve returns the installed route for the pair. ok is false when
// the pair is out of range or currently unreachable; src == dst
// resolves to the empty route.
//
//repro:hotpath
func (g *Generation) Resolve(src, dst int) (r xgft.Route, ok bool) {
	n := g.topo.Leaves()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return xgft.Route{}, false
	}
	r = xgft.Route{Src: src, Dst: dst}
	if src == dst {
		return r, true
	}
	packed := g.shards[src][dst]
	if packed == PackedUnreachable {
		return xgft.Route{}, false
	}
	r.Up = unpackRoute(packed)
	return r, true
}

// ResolveBatch resolves pairs[i] into out[i] and returns how many
// resolved; unresolved slots are zeroed. out must be at least as long
// as pairs. The ascent slices of one batch share a single backing
// arena (each route owns a full-capacity subrange), so bulk
// resolution pays one allocation per call instead of one per route.
//
//repro:hotpath
func (g *Generation) ResolveBatch(pairs [][2]int, out []xgft.Route) (resolved int) {
	n := g.topo.Leaves()
	arena := make([]int, len(pairs)*g.topo.Height())
	for i, p := range pairs {
		src, dst := p[0], p[1]
		if src < 0 || src >= n || dst < 0 || dst >= n {
			out[i] = xgft.Route{}
			continue
		}
		if src == dst {
			out[i] = xgft.Route{Src: src, Dst: dst}
			resolved++
			continue
		}
		packed := g.shards[src][dst]
		if packed == PackedUnreachable {
			out[i] = xgft.Route{}
			continue
		}
		l := int(packed >> levelShift)
		up := arena[:l:l]
		arena = arena[l:]
		for j := 0; j < l; j++ {
			up[j] = int(packed >> (8 * uint(j)) & 0xff)
		}
		out[i] = xgft.Route{Src: src, Dst: dst, Up: up}
		resolved++
	}
	return resolved
}

// ResolveBatchPacked resolves pairs[i] into out[i] as packed words —
// the store's native encoding, shipped verbatim by the binary resolve
// protocol — and returns how many resolved. out must be at least as
// long as pairs. Out-of-range and unreachable pairs get
// PackedUnreachable; self pairs get 0 (the empty ascent). Unlike
// ResolveBatch there is no arena to fill, so the call performs zero
// allocations.
//
//repro:hotpath
func (g *Generation) ResolveBatchPacked(pairs [][2]int, out []uint64) (resolved int) {
	n := g.topo.Leaves()
	for i, p := range pairs {
		src, dst := p[0], p[1]
		if src < 0 || src >= n || dst < 0 || dst >= n {
			out[i] = PackedUnreachable
			continue
		}
		if src == dst {
			out[i] = 0
			resolved++
			continue
		}
		packed := g.shards[src][dst]
		out[i] = packed
		if packed != PackedUnreachable {
			resolved++
		}
	}
	return resolved
}

// appendResolveWire is ResolveBatchPacked in the binary protocol's own
// byte order: pairs holds 8 bytes a pair (big-endian uint32 src, then
// dst) and one big-endian packed word per pair is appended to dst. The
// per-pair rules are ResolveBatchPacked's; tel, when non-nil, counts
// each resolved non-self pair as the lookup finds it.
//
//repro:hotpath
func (g *Generation) appendResolveWire(tel *Telemetry, pairs, dst []byte) (out []byte, resolved int) {
	n := uint64(g.topo.Leaves())
	count := len(pairs) / 8
	at := len(dst)
	end := at + 8*count
	if cap(dst) < end {
		dst = append(dst[:cap(dst)], make([]byte, end-cap(dst))...)
	}
	dst = dst[:end]
	words := dst[at:]
	for i := 0; i < count; i++ {
		p := pairs[8*i : 8*i+8 : 8*i+8]
		src, d := uint64(binary.BigEndian.Uint32(p[0:4])), uint64(binary.BigEndian.Uint32(p[4:8]))
		packed := PackedUnreachable
		switch {
		case src >= n || d >= n:
		case src == d:
			packed = 0
			resolved++
		default:
			if packed = g.shards[src][d]; packed != PackedUnreachable {
				resolved++
				if tel != nil {
					tel.record(int(src), int(d))
				}
			}
		}
		binary.BigEndian.PutUint64(words[8*i:8*i+8:8*i+8], packed)
	}
	return dst, resolved
}

// Routes decodes every resolvable non-self route of the generation,
// in (src, dst) order — the full table a subnet manager would
// install. As in ResolveBatch the ascents share one backing arena
// (each route owns a full-capacity subrange), so the call allocates
// twice whatever the table size.
func (g *Generation) Routes() []xgft.Route {
	out := make([]xgft.Route, 0, g.stats.Routes)
	arena := make([]int, 0, g.stats.Routes*g.topo.Height())
	for s, row := range g.shards {
		for d, packed := range row {
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
