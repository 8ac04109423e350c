package core

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/xgft"
)

// FixedTable is an Algorithm backed by an explicit per-pair route
// map, the in-memory form of the forwarding tables a subnet manager
// (e.g. OpenSM on InfiniBand, which the paper's cited works target)
// would install. Pairs without an explicit entry fall back to a
// configurable default scheme. It is the package's one store of
// explicit routes: a loaded or snapshotted table, a LevelWise schedule
// and Colored's assignments are all FixedTables.
type FixedTable struct {
	topo     *xgft.Topology
	name     string
	fallback Algorithm
	routes   map[int][]int // by pairKey: one word hashes faster than two
}

// NewFixedTable builds an empty fixed table with the given fallback
// (nil means D-mod-k).
func NewFixedTable(t *xgft.Topology, name string, fallback Algorithm) *FixedTable {
	if fallback == nil {
		fallback = NewDModK(t)
	}
	if name == "" {
		name = "fixed"
	}
	return &FixedTable{
		topo:     t,
		name:     name,
		fallback: fallback,
		routes:   make(map[int][]int),
	}
}

// Name implements Algorithm.
func (f *FixedTable) Name() string { return f.name }

// pairKey indexes the route map by pair.
func (f *FixedTable) pairKey(src, dst int) int { return src*f.topo.Leaves() + dst }

// Route implements Algorithm. A pair off the tree has no key of its
// own — (0, N+44) would key as (1, 44) — so it is never looked up: it
// goes to the fallback, like every pair without an entry.
func (f *FixedTable) Route(src, dst int) xgft.Route {
	if n := f.topo.Leaves(); uint(src) >= uint(n) || uint(dst) >= uint(n) {
		return f.fallback.Route(src, dst)
	}
	if up, ok := f.routes[f.pairKey(src, dst)]; ok {
		return xgft.Route{Src: src, Dst: dst, Up: append([]int(nil), up...)}
	}
	return f.fallback.Route(src, dst)
}

// Set installs the route for one pair. The route is validated.
func (f *FixedTable) Set(r xgft.Route) error {
	if err := r.Validate(f.topo); err != nil {
		return err
	}
	f.routes[f.pairKey(r.Src, r.Dst)] = append([]int(nil), r.Up...)
	return nil
}

// Len returns the number of explicit entries.
func (f *FixedTable) Len() int { return len(f.routes) }

// sortedKeys lists the explicit entries' pair keys in (src, dst) order.
func (f *FixedTable) sortedKeys() []int {
	keys := make([]int, 0, len(f.routes))
	for key := range f.routes {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}

// Snapshot captures every route an algorithm produces for the pairs
// of a pattern into a FixedTable — freezing, for example, one seed of
// a randomized scheme for offline inspection or replay.
func Snapshot(t *xgft.Topology, algo Algorithm, pairs [][2]int) (*FixedTable, error) {
	f := NewFixedTable(t, algo.Name()+"-snapshot", nil)
	for _, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		if err := f.Set(algo.Route(p[0], p[1])); err != nil {
			return nil, fmt.Errorf("core: snapshot %d->%d: %w", p[0], p[1], err)
		}
	}
	return f, nil
}

// WriteTo serializes the table in a line-oriented text format
// comparable to OpenSM's LFT dumps:
//
//	# xgft 2;16,16;1,10
//	0 16 0,3
//	...
//
// one "src dst port,port,..." line per explicit entry, sorted.
func (f *FixedTable) WriteTo(w io.Writer) (int64, error) {
	written, err := fmt.Fprintf(w, "# xgft %s\n", specOf(f.topo))
	total := int64(written)
	if err != nil {
		return total, err
	}
	n := f.topo.Leaves()
	for _, key := range f.sortedKeys() {
		ports := f.routes[key]
		strs := make([]string, len(ports))
		for i, p := range ports {
			strs[i] = strconv.Itoa(p)
		}
		written, err := fmt.Fprintf(w, "%d %d %s\n", key/n, key%n, strings.Join(strs, ","))
		total += int64(written)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadTable parses the WriteTo format against a topology and returns
// the fixed table. The first non-blank line must be the header naming
// the topology; later '#' lines are comments. A pair may appear once.
func ReadTable(t *xgft.Topology, r io.Reader, fallback Algorithm) (*FixedTable, error) {
	f := NewFixedTable(t, "fixed", fallback)
	sc := bufio.NewScanner(r)
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !sawHeader {
			sawHeader = true
			if want := "# xgft " + specOf(t); line != want {
				return nil, fmt.Errorf("core: line %d: want the topology's header %q, got %q", lineNo, want, line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("core: line %d: want \"src dst ports\", got %q", lineNo, line)
		}
		src, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("core: line %d: bad source: %v", lineNo, err)
		}
		dst, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("core: line %d: bad destination: %v", lineNo, err)
		}
		var up []int
		if fields[2] != "-" {
			for _, s := range strings.Split(fields[2], ",") {
				p, err := strconv.Atoi(s)
				if err != nil {
					return nil, fmt.Errorf("core: line %d: bad port %q: %v", lineNo, s, err)
				}
				up = append(up, p)
			}
		}
		route := xgft.Route{Src: src, Dst: dst, Up: up}
		if err := route.Validate(t); err != nil {
			return nil, fmt.Errorf("core: line %d: %w", lineNo, err)
		}
		if _, dup := f.routes[f.pairKey(src, dst)]; dup {
			return nil, fmt.Errorf("core: line %d: second route for %d->%d", lineNo, src, dst)
		}
		f.routes[f.pairKey(src, dst)] = up
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("core: table has no \"# xgft %s\" header", specOf(t))
	}
	return f, nil
}

// specOf renders the compact h;m...;w... spec of a topology (the
// inverse of xgft.Parse).
func specOf(t *xgft.Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d;", t.Height())
	for i, m := range t.Ms() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", m)
	}
	b.WriteByte(';')
	for i, w := range t.Ws() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", w)
	}
	return b.String()
}
