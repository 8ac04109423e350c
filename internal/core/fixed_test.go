package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

func TestFixedTableSetAndRoute(t *testing.T) {
	tp := paperTree(t, 16)
	f := NewFixedTable(tp, "test", nil)
	if f.Name() != "test" {
		t.Errorf("name = %s", f.Name())
	}
	r := xgft.Route{Src: 0, Dst: 16, Up: []int{0, 9}}
	if err := f.Set(r); err != nil {
		t.Fatal(err)
	}
	got := f.Route(0, 16)
	if got.Up[1] != 9 {
		t.Errorf("explicit route not used: %v", got.Up)
	}
	// Unknown pair falls back to d-mod-k.
	fb := f.Route(0, 17)
	want := NewDModK(tp).Route(0, 17)
	if fb.Up[1] != want.Up[1] {
		t.Errorf("fallback mismatch: %v vs %v", fb.Up, want.Up)
	}
	if f.Len() != 1 {
		t.Errorf("len = %d", f.Len())
	}
}

func TestFixedTableSetValidates(t *testing.T) {
	tp := paperTree(t, 16)
	f := NewFixedTable(tp, "", nil)
	if err := f.Set(xgft.Route{Src: 0, Dst: 16, Up: []int{0, 99}}); err == nil {
		t.Error("invalid route accepted")
	}
	if err := f.Set(xgft.Route{Src: 0, Dst: 500, Up: []int{0, 0}}); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestFixedTableDefaultName(t *testing.T) {
	tp := paperTree(t, 16)
	if got := NewFixedTable(tp, "", nil).Name(); got != "fixed" {
		t.Errorf("default name = %s", got)
	}
}

func TestSnapshotRoundTripThroughText(t *testing.T) {
	tp := paperTree(t, 10)
	algo := NewRandomNCAUp(tp, 7)
	p := pattern.WRF256()
	pairs := make([][2]int, 0, len(p.Flows))
	for _, f := range p.Flows {
		pairs = append(pairs, [2]int{f.Src, f.Dst})
	}
	snap, err := Snapshot(tp, algo, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != len(p.Flows) {
		t.Fatalf("snapshot has %d entries, want %d", snap.Len(), len(p.Flows))
	}
	var buf strings.Builder
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTable(tp, strings.NewReader(buf.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != snap.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), snap.Len())
	}
	for _, pr := range pairs {
		a := snap.Route(pr[0], pr[1])
		b := loaded.Route(pr[0], pr[1])
		if len(a.Up) != len(b.Up) {
			t.Fatalf("pair %v: ascent length mismatch", pr)
		}
		for i := range a.Up {
			if a.Up[i] != b.Up[i] {
				t.Fatalf("pair %v: route changed through serialization", pr)
			}
		}
	}
}

func TestSnapshotSkipsSelfPairs(t *testing.T) {
	tp := paperTree(t, 16)
	snap, err := Snapshot(tp, NewDModK(tp), [][2]int{{3, 3}, {0, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 1 {
		t.Errorf("len = %d, want 1", snap.Len())
	}
}

func TestReadTableHeaderMismatch(t *testing.T) {
	tp := paperTree(t, 16)
	text := "# xgft 2;16,16;1,10\n0 16 0,3\n"
	if _, err := ReadTable(tp, strings.NewReader(text), nil); err == nil {
		t.Error("mismatched header accepted")
	}
}

func TestReadTableParseErrors(t *testing.T) {
	tp := paperTree(t, 16)
	bad := []string{
		"0 16\n",           // missing ports
		"x 16 0,0\n",       // bad src
		"0 y 0,0\n",        // bad dst
		"0 16 0,z\n",       // bad port
		"0 16 0,99\n",      // invalid route
		"0 16 0\n",         // wrong ascent length
		"0 16 0,0 extra\n", // too many fields
		"0 300 0,0\n",      // out of range
	}
	for _, text := range bad {
		if _, err := ReadTable(tp, strings.NewReader("# xgft 2;16,16;1,16\n"+text), nil); err == nil {
			t.Errorf("bad table %q accepted", text)
		}
	}
}

// ReadTable holds a table to the header it documents: the header is the
// first non-blank line, so a header-less table cannot load onto any
// topology, and a pair is routed once, so no line silently replaces
// another.
func TestReadTableRequiresHeaderAndUniquePairs(t *testing.T) {
	tp := paperTree(t, 16)
	for _, tc := range []struct{ text, err string }{
		{"", "no \"# xgft 2;16,16;1,16\" header"},
		{"\n\n", "no \"# xgft 2;16,16;1,16\" header"},
		{"0 16 0,5\n", "line 1: want the topology's header"},
		{"\n0 16 0,5\n# xgft 2;16,16;1,16\n", "line 2: want the topology's header"},
		{"# comment\n# xgft 2;16,16;1,16\n", "line 1: want the topology's header"},
		{"# xgft 2;16,16;1,16\n0 16 0,5\n1 17 0,2\n0 16 0,6\n", "line 4: second route for 0->16"},
	} {
		if _, err := ReadTable(tp, strings.NewReader(tc.text), nil); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("ReadTable(%q): err = %v, want one containing %q", tc.text, err, tc.err)
		}
	}
	if f, err := ReadTable(tp, strings.NewReader("\n# xgft 2;16,16;1,16\n"), nil); err != nil {
		t.Errorf("a header alone: %v", err)
	} else if f.Len() != 0 {
		t.Errorf("a header alone: %d entries, want none", f.Len())
	}
}

func TestReadTableEmptyAndComments(t *testing.T) {
	tp := paperTree(t, 16)
	text := "# xgft 2;16,16;1,16\n\n# comment\n0 16 0,5\n"
	f, err := ReadTable(tp, strings.NewReader(text), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 {
		t.Errorf("len = %d", f.Len())
	}
	if got := f.Route(0, 16); got.Up[1] != 5 {
		t.Errorf("route = %v", got.Up)
	}
}

func TestAutoModKHeuristic(t *testing.T) {
	tp := paperTree(t, 16)
	// Gather: many sources, one destination -> fan-in dominated ->
	// D-mod-k concentrates the single destination's descent.
	gather := pattern.New(256)
	for s := 1; s < 32; s++ {
		gather.Add(s, 0, 100)
	}
	if got := AutoModK(tp, gather).Name(); got != "d-mod-k" {
		t.Errorf("gather chose %s, want d-mod-k", got)
	}
	// Scatter: one source, many destinations -> fan-out dominated ->
	// S-mod-k shares the single ascent.
	scatter := pattern.New(256)
	for d := 1; d < 32; d++ {
		scatter.Add(0, d, 100)
	}
	if got := AutoModK(tp, scatter).Name(); got != "s-mod-k" {
		t.Errorf("scatter chose %s, want s-mod-k", got)
	}
	// Symmetric permutation: tie -> default d-mod-k.
	perm := pattern.Shift(256, 9, 100)
	if got := AutoModK(tp, perm).Name(); got != "d-mod-k" {
		t.Errorf("permutation chose %s, want d-mod-k", got)
	}
	// Empty pattern: default.
	if got := AutoModK(tp, pattern.New(256)).Name(); got != "d-mod-k" {
		t.Errorf("empty chose %s", got)
	}
}

func TestAutoModKReducesContentionOnScatterGather(t *testing.T) {
	// The heuristic's promise: the chosen scheme routes the pattern
	// with no network contention, the rejected one may not.
	tp := paperTree(t, 16)
	scatter := pattern.New(256)
	for d := 16; d < 48; d++ {
		scatter.Add(0, d, 100)
	}
	chosen := AutoModK(tp, scatter)
	st := newPhaseState(tp)
	for _, f := range scatter.Flows {
		st.apply(f, chosen.Route(f.Src, f.Dst).Up, 1)
	}
	for _, g := range st.upGroups {
		if g > 1 {
			t.Errorf("chosen scheme has up-group contention %d on scatter", g)
		}
	}
}

// routeOrRefusal is algo's route for the pair, or ok false when Route
// panicked: a scheme may refuse a pair off the tree that way.
func routeOrRefusal(algo Algorithm, src, dst int) (r xgft.Route, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return algo.Route(src, dst), true
}

// TestOffTreePairsNeverAliasALeafPair: a pair with an endpoint outside
// the leaves never answers with the route of the leaf pair its src*N+dst
// key coincides with — (0, N+44) is (1, 44)'s key, (-1, N+3) is (0, 3)'s
// and (2, -1) is (1, N-1)'s — under any scheme the factory builds. The
// pattern-aware schemes are built over phases that assign those leaf
// pairs explicitly. A panic counts as a refusal.
func TestOffTreePairsNeverAliasALeafPair(t *testing.T) {
	tp := paperTree(t, 10)
	n := tp.Leaves()
	aliases := []struct{ off, leaf [2]int }{
		{[2]int{0, n + 44}, [2]int{1, 44}},
		{[2]int{-1, n + 3}, [2]int{0, 3}},
		{[2]int{2, -1}, [2]int{1, n - 1}},
	}
	one, other := pattern.New(n), pattern.New(n)
	one.Add(1, 44, 1)
	one.Add(0, 3, 1)
	other.Add(1, n-1, 1)
	for _, name := range AlgorithmNames() {
		algo, err := NewByName(name, tp, 7, []*pattern.Pattern{one, other})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range aliases {
			got, ok := routeOrRefusal(algo, a.off[0], a.off[1])
			if !ok {
				continue
			}
			if leaf := algo.Route(a.leaf[0], a.leaf[1]); got.Src != a.off[0] || got.Dst != a.off[1] || slices.Equal(got.Up, leaf.Up) {
				t.Errorf("%s: off-tree pair %v answers %+v, pair %v's route is %v", name, a.off, got, a.leaf, leaf.Up)
			}
		}
	}
}
