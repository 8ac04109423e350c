package xgft

import (
	"math/bits"
	"strconv"
	"testing"

	"repro/internal/hashutil"
)

// FuzzParse feeds arbitrary strings to Parse, which must never panic,
// and holds every tree it accepts to the reference lowering: on
// sampled pairs and ascents the climbs walk the wires referenceWires
// names. To bound memory it parses only inputs whose integers (every
// run of digits, zero read as one) multiply to at most 2^20, which
// bounds the leaves, the nodes of every level and, times the height,
// the channels.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		if !smallSpec(spec) {
			t.Skip()
		}
		tp, err := Parse(spec)
		if err != nil {
			return
		}
		n := tp.Leaves()
		r := hashutil.NewStream(uint64(n), uint64(tp.TotalChannels()))
		var buf [MaxHeight]int
		for i := 0; i < 64; i++ {
			rt := Route{Src: r.Intn(n), Dst: r.Intn(n)}
			rt.Up = buf[:tp.NCALevel(rt.Src, rt.Dst)]
			for l := range rt.Up {
				rt.Up[l] = r.Intn(tp.W(l))
			}
			gotUp, gotDown := climbWires(tp, rt)
			wantUp, wantDown := referenceWires(tp, rt)
			if !equalInts(gotUp, wantUp) || !equalInts(gotDown, wantDown) {
				t.Fatalf("%v: route %d->%d up %v: climbs walk %v then %v, reference %v then %v",
					tp, rt.Src, rt.Dst, rt.Up, gotUp, gotDown, wantUp, wantDown)
			}
		}
	})
}

// smallSpec reports whether the digit runs of spec multiply to at most
// 2^20.
func smallSpec(spec string) bool {
	product := uint64(1)
	for i := 0; i < len(spec); {
		if !isDigit(spec[i]) {
			i++
			continue
		}
		j := i
		for j < len(spec) && isDigit(spec[j]) {
			j++
		}
		v, err := strconv.ParseUint(spec[i:j], 10, 64)
		if err != nil {
			return false
		}
		hi, lo := bits.Mul64(product, max(v, 1))
		if hi != 0 || lo > 1<<20 {
			return false
		}
		product, i = lo, j
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
