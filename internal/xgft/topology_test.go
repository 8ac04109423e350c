package xgft

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hashutil"
)

// paperTree returns the evaluation topology XGFT(2;16,16;1,w2).
func paperTree(t *testing.T, w2 int) *Topology {
	t.Helper()
	tp, err := NewSlimmedTree(16, 16, w2)
	if err != nil {
		t.Fatalf("NewSlimmedTree: %v", err)
	}
	return tp
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		h    int
		m, w []int
	}{
		{"zero height", 0, nil, nil},
		{"negative height", -1, nil, nil},
		{"huge height", MaxHeight + 1, make([]int, MaxHeight+1), make([]int, MaxHeight+1)},
		{"short m", 2, []int{4}, []int{1, 2}},
		{"short w", 2, []int{4, 4}, []int{1}},
		{"zero m", 2, []int{0, 4}, []int{1, 2}},
		{"zero w", 2, []int{4, 4}, []int{0, 2}},
		{"negative m", 1, []int{-3}, []int{1}},
		{"overflow leaves", 4, []int{1 << 10, 1 << 10, 1 << 10, 1 << 10}, []int{1, 1, 1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.h, c.m, c.w); err == nil {
				t.Errorf("New(%d,%v,%v) succeeded, want error", c.h, c.m, c.w)
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad parameters did not panic")
		}
	}()
	MustNew(0, nil, nil)
}

func TestKaryNTreeCounts(t *testing.T) {
	// A k-ary n-tree has k^n leaves and n*k^(n-1) switches.
	cases := []struct{ k, n int }{{2, 2}, {2, 3}, {4, 2}, {4, 3}, {16, 2}, {2, 6}, {3, 4}}
	for _, c := range cases {
		tp, err := NewKaryNTree(c.k, c.n)
		if err != nil {
			t.Fatalf("NewKaryNTree(%d,%d): %v", c.k, c.n, err)
		}
		wantLeaves := pow(c.k, c.n)
		if got := tp.Leaves(); got != wantLeaves {
			t.Errorf("%v leaves = %d, want %d", tp, got, wantLeaves)
		}
		wantSwitches := c.n * pow(c.k, c.n-1)
		if got := tp.InnerSwitches(); got != wantSwitches {
			t.Errorf("%v switches = %d, want %d", tp, got, wantSwitches)
		}
		if k, ok := tp.IsKaryNTree(); !ok || k != c.k {
			t.Errorf("%v IsKaryNTree = (%d,%v), want (%d,true)", tp, k, ok, c.k)
		}
		if tp.IsSlimmed() {
			t.Errorf("%v reported slimmed", tp)
		}
	}
}

func TestEquation1InnerSwitches(t *testing.T) {
	// Paper Eq. (1): I = sum_{i=1..h} prod_{j>i} m_j * prod_{j<=i} w_j.
	eq1 := func(h int, m, w []int) int {
		total := 0
		for i := 1; i <= h; i++ {
			term := 1
			for j := i + 1; j <= h; j++ {
				term *= m[j-1]
			}
			for j := 1; j <= i; j++ {
				term *= w[j-1]
			}
			total += term
		}
		return total
	}
	cases := []struct {
		h    int
		m, w []int
	}{
		{2, []int{16, 16}, []int{1, 16}},
		{2, []int{16, 16}, []int{1, 10}},
		{2, []int{16, 16}, []int{1, 1}},
		{3, []int{4, 4, 4}, []int{1, 2, 2}},
		{3, []int{4, 4, 4}, []int{1, 4, 4}},
		{4, []int{2, 3, 4, 5}, []int{1, 2, 3, 4}},
		{1, []int{64}, []int{1}},
	}
	for _, c := range cases {
		tp := MustNew(c.h, c.m, c.w)
		if got, want := tp.InnerSwitches(), eq1(c.h, c.m, c.w); got != want {
			t.Errorf("%v InnerSwitches = %d, want Eq.(1) %d", tp, got, want)
		}
	}
}

func TestSlimmedTreeProperties(t *testing.T) {
	full := paperTree(t, 16)
	if full.IsSlimmed() {
		t.Error("w2=16 tree reported slimmed")
	}
	for w2 := 1; w2 <= 15; w2++ {
		tp := paperTree(t, w2)
		if !tp.IsSlimmed() {
			t.Errorf("w2=%d tree not reported slimmed", w2)
		}
		if got, want := tp.InnerSwitches(), 16+w2; got != want {
			t.Errorf("w2=%d switches = %d, want %d", w2, got, want)
		}
		if got := tp.NodesAt(2); got != w2 {
			t.Errorf("w2=%d roots = %d, want %d", w2, got, w2)
		}
	}
}

func TestFullCrossbar(t *testing.T) {
	tp, err := NewFullCrossbar(64)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Leaves() != 64 || tp.InnerSwitches() != 1 || tp.Height() != 1 {
		t.Errorf("crossbar shape wrong: leaves=%d switches=%d h=%d", tp.Leaves(), tp.InnerSwitches(), tp.Height())
	}
	// Every pair of distinct leaves has NCA level 1 and exactly one NCA.
	if got := tp.NCALevel(3, 59); got != 1 {
		t.Errorf("crossbar NCA level = %d, want 1", got)
	}
	if got := tp.NCACount(1); got != 1 {
		t.Errorf("crossbar NCA count = %d, want 1", got)
	}
}

func TestLabelIndexRoundTrip(t *testing.T) {
	tp := MustNew(3, []int{3, 4, 2}, []int{1, 2, 3})
	for level := 0; level <= tp.Height(); level++ {
		for idx := 0; idx < tp.NodesAt(level); idx++ {
			lab := tp.Label(level, idx)
			if got := tp.Index(level, lab); got != idx {
				t.Fatalf("level %d index %d -> label %v -> index %d", level, idx, lab, got)
			}
			for j, dig := range lab {
				base := tp.m[j]
				if j < level {
					base = tp.w[j]
				}
				if dig < 0 || dig >= base {
					t.Fatalf("level %d index %d digit %d = %d out of base %d", level, idx, j, dig, base)
				}
			}
		}
	}
}

func TestTableILabels(t *testing.T) {
	// Table I: leaf labels use <M_h..M_1>; level-i nodes replace the i
	// lowest digits by W digits; node counts follow N^i.
	tp := paperTree(t, 10)
	if got := tp.NodesAt(0); got != 256 {
		t.Errorf("leaves = %d, want 256", got)
	}
	if got := tp.NodesAt(1); got != 16 {
		t.Errorf("level-1 switches = %d, want 16", got)
	}
	if got := tp.NodesAt(2); got != 10 {
		t.Errorf("roots = %d, want 10", got)
	}
	// Leaf 37 = 2*16 + 5 -> <2,5>.
	if got := tp.FormatLabel(0, 37); got != "<2,5>" {
		t.Errorf("leaf 37 label = %s, want <2,5>", got)
	}
	// Level-1 switch 7 -> <7,0> (W_1 digit is always 0 since w1=1).
	if got := tp.FormatLabel(1, 7); got != "<7,0>" {
		t.Errorf("switch 7 label = %s, want <7,0>", got)
	}
}

func TestParentChildInverse(t *testing.T) {
	tp := MustNew(3, []int{3, 4, 2}, []int{1, 2, 3})
	for level := 0; level < tp.Height(); level++ {
		for idx := 0; idx < tp.NodesAt(level); idx++ {
			for p := 0; p < tp.W(level); p++ {
				parent := tp.Parent(level, idx, p)
				if parent < 0 || parent >= tp.NodesAt(level+1) {
					t.Fatalf("Parent(%d,%d,%d) = %d out of range", level, idx, p, parent)
				}
				// The down-port on the parent that returns to idx is
				// idx's digit at position level.
				c := tp.DownPortOf(level, idx)
				if got := tp.Child(level+1, parent, c); got != idx {
					t.Fatalf("Child(Parent(%d,%d,%d)=%d, %d) = %d, want %d", level, idx, p, parent, c, got, idx)
				}
				if got := tp.UpPortOf(level, parent); got != p {
					t.Fatalf("UpPortOf(%d,%d) = %d, want %d", level, parent, got, p)
				}
			}
		}
	}
}

func TestNCALevelProperties(t *testing.T) {
	tp := paperTree(t, 10)
	n := tp.Leaves()
	for s := 0; s < n; s += 7 {
		if got := tp.NCALevel(s, s); got != 0 {
			t.Fatalf("NCALevel(%d,%d) = %d, want 0", s, s, got)
		}
		for d := 0; d < n; d += 5 {
			l := tp.NCALevel(s, d)
			if l != tp.NCALevel(d, s) {
				t.Fatalf("NCALevel not symmetric for (%d,%d)", s, d)
			}
			if s != d {
				sameSwitch := s/16 == d/16
				if sameSwitch && l != 1 {
					t.Fatalf("NCALevel(%d,%d) = %d, want 1 (same switch)", s, d, l)
				}
				if !sameSwitch && l != 2 {
					t.Fatalf("NCALevel(%d,%d) = %d, want 2", s, d, l)
				}
			}
		}
	}
}

// ncaLevelByDigits is NCALevel's definition as the digit-wise loop it
// was first written as: one plus the highest position at which the two
// leaves' M-digits differ, 0 for s == d.
func ncaLevelByDigits(tp *Topology, s, d int) int {
	level := 0
	for j := 0; j < tp.Height(); j++ {
		base := tp.M(j)
		if s%base != d%base {
			level = j + 1
		}
		s /= base
		d /= base
	}
	return level
}

// TestNCALevelMatchesDigitwiseReference holds the top-down prefix
// comparison to the digit-wise loop on every pair of small trees with
// the shapes the prefix rule could trip on.
func TestNCALevelMatchesDigitwiseReference(t *testing.T) {
	for _, tp := range []*Topology{
		MustNew(1, []int{6}, []int{1}),             // h = 1
		MustNew(3, []int{3, 1, 4}, []int{1, 2, 2}), // a level with m_j = 1
		MustNew(2, []int{4, 1}, []int{1, 3}),       // m_h = 1: no pair reaches a root
		MustNew(2, []int{3, 4}, []int{2, 5}),       // w_j > m_j
		MustNew(3, []int{4, 3, 5}, []int{1, 2, 3}), // three levels
	} {
		for s := 0; s < tp.Leaves(); s++ {
			for d := 0; d < tp.Leaves(); d++ {
				if got, want := tp.NCALevel(s, d), ncaLevelByDigits(tp, s, d); got != want {
					t.Fatalf("%s: NCALevel(%d,%d) = %d, digit-wise reference %d", tp, s, d, got, want)
				}
			}
		}
	}
}

// ncaLevelByDivision is the prefix rule NCALevel used before it read
// bit-field labels: s/below[j] is the leaf's digits j..h-1, so the
// first j from the top where the two prefixes differ is the highest
// differing digit.
func ncaLevelByDivision(tp *Topology, s, d int) int {
	below := 1
	for j := 0; j < tp.Height()-1; j++ {
		below *= tp.M(j)
	}
	for j := tp.Height() - 1; j >= 0; j-- {
		if s/below != d/below {
			return j + 1
		}
		if j > 0 {
			below /= tp.M(j - 1)
		}
	}
	return 0
}

// TestNCALevelMatchesDivisionRule holds the bit-field rule, and
// NCARanges, to the division rule on every pair of trees whose digit
// fields it could get wrong: one level, four levels, arities that are not powers of two
// (fields with unused codes), w_1 > 1, slimmed trees and m_j = 1.
func TestNCALevelMatchesDivisionRule(t *testing.T) {
	for _, tp := range []*Topology{
		MustNew(1, []int{7}, []int{1}),                   // h = 1
		MustNew(1, []int{16}, []int{3}),                  // h = 1, w_1 > 1
		MustNew(4, []int{3, 2, 5, 3}, []int{1, 2, 3, 2}), // h = 4
		MustNew(4, []int{4, 4, 4, 4}, []int{1, 4, 4, 4}), // 4-ary 4-tree
		MustNew(3, []int{3, 5, 7}, []int{2, 3, 4}),       // odd arities, w_1 > 1
		MustNew(2, []int{16, 16}, []int{1, 10}),          // the paper's slimmed tree
		MustNew(3, []int{6, 1, 9}, []int{1, 1, 3}),       // a level with m_j = 1, slimmed
		MustNew(2, []int{17, 15}, []int{3, 2}),           // 5- and 4-bit fields, slimmed
	} {
		for s := 0; s < tp.Leaves(); s++ {
			for d := 0; d < tp.Leaves(); d++ {
				if got, want := tp.NCALevel(s, d), ncaLevelByDivision(tp, s, d); got != want {
					t.Fatalf("%s: NCALevel(%d,%d) = %d, division rule %d", tp, s, d, got, want)
				}
			}
			// NCARanges covers every destination once, each at its level.
			seen := make([]int, tp.Leaves())
			tp.NCARanges(s, func(lo, hi, level int) {
				for d := lo; d < hi; d++ {
					if seen[d]++; seen[d] > 1 || level != ncaLevelByDivision(tp, s, d) {
						t.Fatalf("%s: NCARanges(%d) puts %d at level %d (visit %d), division rule %d", tp, s, d, level, seen[d], ncaLevelByDivision(tp, s, d))
					}
				}
			})
			if i := slices.Index(seen, 0); i >= 0 {
				t.Fatalf("%s: NCARanges(%d) skips leaf %d", tp, s, i)
			}
		}
	}
}

func TestNCACount(t *testing.T) {
	tp := paperTree(t, 10)
	if got := tp.NCACount(1); got != 1 {
		t.Errorf("NCACount(1) = %d, want 1", got)
	}
	if got := tp.NCACount(2); got != 10 {
		t.Errorf("NCACount(2) = %d, want 10", got)
	}
	deep := MustNew(3, []int{4, 4, 4}, []int{1, 2, 3})
	if got := deep.NCACount(3); got != 6 {
		t.Errorf("deep NCACount(3) = %d, want 6", got)
	}
}

func TestChannelIDRoundTrip(t *testing.T) {
	tp := MustNew(3, []int{3, 4, 2}, []int{1, 2, 3})
	seen := make(map[int]bool)
	for level := 0; level < tp.Height(); level++ {
		for idx := 0; idx < tp.NodesAt(level); idx++ {
			for p := 0; p < tp.W(level); p++ {
				id := tp.UpChannelID(level, idx, p)
				if id < 0 || id >= tp.TotalChannels() {
					t.Fatalf("channel ID %d out of range [0,%d)", id, tp.TotalChannels())
				}
				if seen[id] {
					t.Fatalf("duplicate channel ID %d", id)
				}
				seen[id] = true
				gl, gi, gp := tp.ChannelOf(id)
				if gl != level || gi != idx || gp != p {
					t.Fatalf("ChannelOf(%d) = (%d,%d,%d), want (%d,%d,%d)", id, gl, gi, gp, level, idx, p)
				}
			}
		}
	}
	if len(seen) != tp.TotalChannels() {
		t.Fatalf("enumerated %d channels, want %d", len(seen), tp.TotalChannels())
	}
}

func TestChannelCountsMatchPaper(t *testing.T) {
	// Paper: number of up links from level i = N^i * w_{i+1}.
	tp := MustNew(3, []int{4, 4, 4}, []int{1, 2, 2})
	for l := 0; l < tp.Height(); l++ {
		want := tp.NodesAt(l) * tp.W(l)
		if got := tp.ChannelsAt(l); got != want {
			t.Errorf("ChannelsAt(%d) = %d, want %d", l, got, want)
		}
	}
}

func TestStringNotation(t *testing.T) {
	tp := paperTree(t, 10)
	if got, want := tp.String(), "XGFT(2;16,16;1,10)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestEqual(t *testing.T) {
	a := paperTree(t, 10)
	b := paperTree(t, 10)
	c := paperTree(t, 11)
	d := MustNew(1, []int{256}, []int{1})
	if !a.Equal(b) {
		t.Error("identical topologies not Equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different topologies reported Equal")
	}
}

func TestAccessorCopies(t *testing.T) {
	tp := paperTree(t, 10)
	ms := tp.Ms()
	ms[0] = 99
	if tp.M(0) == 99 {
		t.Error("Ms() returned internal slice")
	}
	ws := tp.Ws()
	ws[1] = 99
	if tp.W(1) == 99 {
		t.Error("Ws() returned internal slice")
	}
}

// randomTopology draws a small random XGFT for property tests.
func randomTopology(r *hashutil.Stream) *Topology {
	h := 1 + r.Intn(4)
	m := make([]int, h)
	w := make([]int, h)
	for i := range m {
		m[i] = 1 + r.Intn(4)
		w[i] = 1 + r.Intn(4)
	}
	w[0] = 1 + r.Intn(2)
	return MustNew(h, m, w)
}

func TestQuickLabelBijection(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		tp := randomTopology(r)
		for level := 0; level <= tp.Height(); level++ {
			n := tp.NodesAt(level)
			idx := r.Intn(n)
			if tp.Index(level, tp.Label(level, idx)) != idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickParentChildAdjacency(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		tp := randomTopology(r)
		level := r.Intn(tp.Height())
		idx := r.Intn(tp.NodesAt(level))
		p := r.Intn(tp.W(level))
		parent := tp.Parent(level, idx, p)
		// Parent label must equal child label with digit `level`
		// replaced by p.
		cl := tp.Label(level, idx)
		pl := tp.Label(level+1, parent)
		for j := 0; j < tp.Height(); j++ {
			want := cl[j]
			if j == level {
				want = p
			}
			if pl[j] != want {
				return false
			}
		}
		return tp.Child(level+1, parent, cl[level]) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickNCALevelMatchesLabels(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		tp := randomTopology(r)
		n := tp.Leaves()
		s, d := r.Intn(n), r.Intn(n)
		want := 0
		sl, dl := tp.Label(0, s), tp.Label(0, d)
		for j := 0; j < tp.Height(); j++ {
			if sl[j] != dl[j] {
				want = j + 1
			}
		}
		return tp.NCALevel(s, d) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// TestParentTableMatchesArithmetic holds the per-channel parent table
// New tabulates to its arithmetic definition, for every (level, index,
// port) of the README's topologies and of keyed-random XGFTs up to
// h = 4, and holds Child to be its inverse: descending from the parent
// through the child's own digit comes back to the child. The table has
// one entry per channel — New stays O(channels) in time and memory.
func TestParentTableMatchesArithmetic(t *testing.T) {
	topos := []*Topology{
		MustNew(2, []int{16, 16}, []int{1, 16}), // the paper's 16-ary 2-tree
		MustNew(2, []int{16, 16}, []int{1, 10}), // slimmed
		MustNew(2, []int{16, 16}, []int{1, 1}),
		MustNew(3, []int{4, 4, 4}, []int{1, 2, 2}),
		MustNew(3, []int{3, 4, 2}, []int{1, 2, 3}),
		MustNew(3, []int{4, 3, 5}, []int{1, 2, 3}),
		MustNew(1, []int{256}, []int{1}),                // the crossbar reference
		MustNew(3, []int{16, 16, 16}, []int{1, 16, 16}), // 4096 leaves: the largest a test builds
	}
	r := newRand(0x9a7e)
	for i := 0; i < 200; i++ {
		topos = append(topos, randomTopology(r))
	}
	for _, tp := range topos {
		if got, want := len(tp.parentOf), tp.TotalChannels(); got != want {
			t.Fatalf("%v: parent table has %d entries, want one per channel (%d)", tp, got, want)
		}
		for l := 0; l < tp.Height(); l++ {
			for idx := 0; idx < tp.NodesAt(l); idx++ {
				for p := 0; p < tp.W(l); p++ {
					parent := tp.Parent(l, idx, p)
					if want := tp.parentIndex(l, idx, p); parent != want {
						t.Fatalf("%v: Parent(%d,%d,%d) = %d, arithmetic definition %d", tp, l, idx, p, parent, want)
					}
					c := Climb{t: tp, src: idx, dst: idx}
					wire, _ := c.Step(l, p)
					if next, _ := c.Nodes(); wire != tp.UpChannelID(l, idx, p) || next != parent {
						t.Fatalf("%v: Step(%d,%d) from node %d crossed wire %d to node %d, want %d to %d", tp, l, p, idx, wire, next, tp.UpChannelID(l, idx, p), parent)
					}
					if parent < 0 || parent >= tp.NodesAt(l+1) {
						t.Fatalf("%v: Parent(%d,%d,%d) = %d outside level %d", tp, l, idx, p, parent, l+1)
					}
					if back := tp.Child(l+1, parent, tp.DownPortOf(l, idx)); back != idx {
						t.Fatalf("%v: Child(Parent(%d,%d,%d)) = %d", tp, l, idx, p, back)
					}
					if got := tp.UpPortOf(l, parent); got != p {
						t.Fatalf("%v: UpPortOf(Parent(%d,%d,%d)) = %d", tp, l, idx, p, got)
					}
				}
			}
		}
	}
	if _, err := New(3, []int{1 << 10, 1 << 10, 1 << 10}, []int{4, 1, 1}); err == nil { // 2^32 leaf channels
		t.Error("New accepted a topology whose channels do not fit the parent table")
	}
}
