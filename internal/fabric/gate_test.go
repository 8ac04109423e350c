package fabric

import (
	"fmt"
	"testing"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/xgft"
)

// pairGate is the reference checkBase's slot walk is held to: every
// non-self pair's served word checked on its own, source by source —
// the gate a guided base passed before it was checked a slot at a time.
func pairGate(t *xgft.Topology, r *routes) (checked int, err error) {
	var up [maxHeight]int
	buf := make([]uint64, r.n)
	for s := 0; s < r.n; s++ {
		for d, word := range r.rowOf(s, buf) {
			if s == d || word == PackedUnreachable {
				continue
			}
			if err := contention.CheckRoute(t, s, d, AppendPackedUp(word, up[:0])); err != nil {
				return 0, err
			}
			checked++
		}
	}
	return checked, nil
}

// guidedBase packs a guided scheme's healthy table as pinLocked does.
func guidedBase(tb testing.TB, tp *xgft.Topology, algo core.Algorithm) *table {
	tb.Helper()
	var buf [maxHeight]int
	_, bySource, guided := core.GuideAscent(algo, 0, buf[:0])
	if !guided {
		tb.Fatalf("%s is not guided", algo.Name())
	}
	tbl := &table{routes: routes{n: tp.Leaves(), nca: tp.NCA(), topo: tp}}
	if err := (&Fabric{topo: tp}).packGuided(tbl, algo, bySource); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// corrupted returns a copy of base whose slot (g, l) holds word.
func corrupted(base *table, g, l int, word uint64) *routes {
	r := base.routes
	r.guided = append([]uint64(nil), base.guided...)
	r.guided[g*guidedStride+l] = word
	return &r
}

// checkSlotVerdict holds checkBase to pairGate on r, whose slot (g, l)
// alone may differ from a healthy base: both accept, vouching for the
// same count, or both refuse, and checkBase's refusal names a pair the
// slot serves.
func checkSlotVerdict(t *testing.T, tp *xgft.Topology, r *routes, g, l int, what string) {
	t.Helper()
	got, err := checkBase(tp, r)
	want, refErr := pairGate(tp, r)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("%s: slot gate %v, pair gate %v", what, err, refErr)
	case err == nil && got != want:
		t.Fatalf("%s: slot gate vouched for %d routes, pair gate %d", what, got, want)
	case err != nil:
		var s, d int
		if _, scanErr := fmt.Sscanf(err.Error(), "contention: route %d->%d", &s, &d); scanErr != nil {
			t.Fatalf("%s: refusal %q names no pair: %v", what, err, scanErr)
		}
		guide := d
		if r.bySource {
			guide = s
		}
		if s == d || guide != g || tp.NCALevel(s, d) != l {
			t.Fatalf("%s: refusal %q names a pair slot (%d,%d) does not serve", what, err, g, l)
		}
	}
}

// slotCorruptions lists the words a corruption of slot (g, l) writes: a
// port byte j < l set to W(j), one past its radix, and the level byte
// set to h+1.
func slotCorruptions(tp *xgft.Topology, word uint64, l int) []uint64 {
	var out []uint64
	for j := 0; j < l; j++ {
		out = append(out, word&^(0xff<<(8*uint(j)))|uint64(tp.W(j))<<(8*uint(j)))
	}
	return append(out, word&^(0xff<<levelShift)|uint64(tp.Height()+1)<<levelShift)
}

// TestGuidedGateMatchesPairGate holds the slot gate to the per-pair
// walk it replaced. On the rank trees of internal/contention's
// TestAddOnlyClimbsRanks, the slimmed 256-leaf tree and three
// degenerate ones (one level; a top level of arity 1; W = 1 throughout),
// under s-mod-k, d-mod-k and r-NCA-u/d at three seeds, the slot gate
// accepts the healthy base, vouching for every non-self pair; then, one
// slot of a copy at a time corrupted at each port byte and in its level
// byte, it refuses exactly when the pair gate does, naming a pair the
// corrupted slot serves. The pair named may differ from the first pair
// the per-pair walk meets. Trees over 64 leaves corrupt the slots of
// five guide leaves, the rest every slot.
func TestGuidedGateMatchesPairGate(t *testing.T) {
	trees := []*xgft.Topology{
		xgft.MustNew(1, []int{4}, []int{3}),
		xgft.MustNew(2, []int{6, 5}, []int{1, 3}),
		xgft.MustNew(3, []int{3, 5, 7}, []int{2, 3, 4}),
		xgft.MustNew(4, []int{2, 3, 2, 3}, []int{2, 1, 3, 2}),
		xgft.MustNew(2, []int{16, 16}, []int{1, 10}),
	}
	for _, spec := range []string{"1;8;1", "2;4,1;1,4", "2;4,4;1,1"} {
		tp, err := xgft.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tp)
	}
	for _, tp := range trees {
		n := tp.Leaves()
		schemes := []core.Algorithm{core.NewSModK(tp), core.NewDModK(tp)}
		for _, seed := range []uint64{1, 7, 42} {
			schemes = append(schemes, core.NewRandomNCAUp(tp, seed), core.NewRandomNCADown(tp, seed))
		}
		guides := []int{0, 1, n / 2, n/3 + 1, n - 1}
		if n <= 64 {
			guides = guides[:0]
			for g := range n {
				guides = append(guides, g)
			}
		}
		for _, algo := range schemes {
			base := guidedBase(t, tp, algo)
			got, err := checkBase(tp, &base.routes)
			if err != nil || got != n*(n-1) {
				t.Fatalf("%v %s: healthy base: slot gate vouched for %d routes (%v), want %d", tp, algo.Name(), got, err, n*(n-1))
			}
			for _, g := range guides {
				g %= n
				for l := 0; l <= tp.Height(); l++ {
					for _, word := range slotCorruptions(tp, base.guided[g*guidedStride+l], l) {
						what := fmt.Sprintf("%v %s slot (%d,%d) = %#x", tp, algo.Name(), g, l, word)
						checkSlotVerdict(t, tp, corrupted(base, g, l, word), g, l, what)
					}
				}
			}
		}
	}
}

// FuzzGuidedGate holds the slot gate to the pair gate under arbitrary
// single-byte corruptions: the inputs pick a small tree (fuzzTree), a
// guided scheme and its seed (fuzzScheme), a slot (guide leaf slot%N,
// level slot/N mod h+1), a byte of its word and the value written
// there, and the two gates must agree as TestGuidedGateMatchesPairGate
// requires.
func FuzzGuidedGate(f *testing.F) {
	f.Add(uint8(1), uint16(0x234), uint16(0x321), uint8(0), uint64(1), uint16(40), uint8(1), uint8(3))
	f.Add(uint8(0), uint16(0x5), uint16(0x3), uint8(1), uint64(1), uint16(7), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, h uint8, ms, ws uint16, scheme uint8, seed uint64, slot uint16, pos, val uint8) {
		tp, err := fuzzTree(h, ms, ws)
		if err != nil {
			t.Fatal(err)
		}
		n := tp.Leaves()
		if n < 2 {
			t.Skip("one leaf: no pair to route")
		}
		algo := fuzzScheme(tp, scheme, seed)
		base := guidedBase(t, tp, algo)
		if got, err := checkBase(tp, &base.routes); err != nil || got != n*(n-1) {
			t.Fatalf("%v %s: healthy base: slot gate vouched for %d routes (%v), want %d", tp, algo.Name(), got, err, n*(n-1))
		}
		g, l := int(slot)%n, int(slot)/n%(tp.Height()+1)
		shift := 8 * uint(pos%8)
		word := base.guided[g*guidedStride+l]&^(0xff<<shift) | uint64(val)<<shift
		what := fmt.Sprintf("%v %s slot (%d,%d) = %#x", tp, algo.Name(), g, l, word)
		checkSlotVerdict(t, tp, corrupted(base, g, l, word), g, l, what)
	})
}
