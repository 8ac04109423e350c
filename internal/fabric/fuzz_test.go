package fabric

import (
	"fmt"
	"testing"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// fuzzTree decodes a small tree shape: h in [1, 3], and m_j, w_j in
// [1, 6] from the low nibbles of ms and ws, digit j in nibble j.
func fuzzTree(h uint8, ms, ws uint16) (*xgft.Topology, error) {
	height := 1 + int(h%3)
	m, w := make([]int, height), make([]int, height)
	for j := range m {
		m[j] = 1 + int(ms>>(4*j)&0xf)%6
		w[j] = 1 + int(ws>>(4*j)&0xf)%6
	}
	return xgft.New(height, m, w)
}

// fuzzScheme picks one of the guided schemes.
func fuzzScheme(tp *xgft.Topology, scheme uint8, seed uint64) core.Algorithm {
	switch scheme % 6 {
	case 0:
		return core.NewSModK(tp)
	case 1:
		return core.NewDModK(tp)
	case 2:
		return core.NewRandomNCAUp(tp, seed)
	case 3:
		return core.NewRandomNCADown(tp, seed)
	case 4:
		return core.NewUnbalancedNCAUp(tp, seed)
	default:
		return core.NewUnbalancedNCADown(tp, seed)
	}
}

// fuzzRuleScheme picks a scheme of either rule form: a guided scheme
// (fuzzScheme), whose rule is a guided base, or Random or LevelWise (a
// keyed permutation's phase over its d-mod-k fallback), whose rule is
// held rows.
func fuzzRuleScheme(t *testing.T, tp *xgft.Topology, scheme uint8, seed uint64) core.Algorithm {
	switch scheme % 8 {
	case 6:
		return core.NewRandom(tp, seed)
	case 7:
		lw, err := core.NewLevelWise(tp, []*pattern.Pattern{pattern.KeyedRandomPermutation(tp.Leaves(), 1, seed)})
		if err != nil {
			t.Fatal(err)
		}
		return lw
	}
	return fuzzScheme(tp, scheme, seed)
}

// FuzzGuidedMatchesPacked holds the serving form — a rule plus the
// words that differ from it — to the packed table it replaced: a fabric
// over a scheme of either rule form (fuzzRuleScheme) and the
// from-scratch reference of TestDerivedMatchesFromScratch (every table
// built for all pairs, patched wholesale and certified alone) run the
// same FailLink/FailSwitch/Heal/Optimize script, three bytes a step, on
// a small tree, whose optimize passes may install Colored's overrides
// over its d-mod-k fallback; after every step both accept or both
// refuse, every pair's served word is packRoute of the reference's
// route (PackedUnreachable where it has none), and the serving
// generation's route set certifies deadlock-free.
func FuzzGuidedMatchesPacked(f *testing.F) {
	f.Add(uint8(1), uint16(0x044), uint16(0x021), uint8(1), uint64(1), []byte{0, 1, 2, 3, 0, 0, 2, 0, 0, 1, 1, 0})
	f.Add(uint8(2), uint16(0x234), uint16(0x321), uint8(2), uint64(5), []byte{3, 7, 1, 0, 2, 9, 1, 4, 0, 3, 1, 1})
	f.Fuzz(func(t *testing.T, h uint8, ms, ws uint16, scheme uint8, seed uint64, script []byte) {
		tp, err := fuzzTree(h, ms, ws)
		if err != nil {
			t.Fatal(err)
		}
		n := tp.Leaves()
		if n < 2 {
			t.Skip("one leaf: no pair to route")
		}
		if len(script) > 24 {
			script = script[:24]
		}
		fab := telemetryFabric(t, tp, fuzzRuleScheme(t, tp, scheme, seed))
		ref := newRefFabric(t, tp, fuzzRuleScheme(t, tp, scheme, seed))
		for step := 0; len(script) >= 3; step, script = step+1, script[3:] {
			op, a, b := script[0], int(script[1]), int(script[2])
			var what string
			var err, refErr error
			switch op % 4 {
			case 0:
				l := a % tp.Height()
				idx, p := b%tp.NodesAt(l), (a/tp.Height())%tp.W(l)
				what = fmt.Sprintf("fail-link %d,%d,%d", l, idx, p)
				_, err = fab.FailLink(l, idx, p)
				refErr = ref.degrade(func(v *xgft.View) bool { return v.FailLink(l, idx, p) })
			case 1:
				l := 1 + a%tp.Height()
				idx := b % tp.NodesAt(l)
				what = fmt.Sprintf("fail-switch %d,%d", l, idx)
				_, err = fab.FailSwitch(l, idx)
				refErr = ref.degrade(func(v *xgft.View) bool { return v.FailSwitch(l, idx) })
			case 2:
				what = "heal"
				_, err = fab.Heal()
				refErr = ref.heal(ref.stats.Seq + 1)
			default:
				obs := pattern.New(n)
				for i := 0; i < 1+a%(2*n); i++ {
					s, d := int(hashutil.Mix(uint64(b), 1, uint64(i))%uint64(n)), int(hashutil.Mix(uint64(b), 2, uint64(i))%uint64(n))
					if s != d {
						obs.Add(s, d, int64(1+hashutil.Mix(uint64(b), 3, uint64(i))%64))
					}
				}
				cfg := OptimizeConfig{Reset: true, Seed: 1 + uint64(a%3)}
				what = fmt.Sprintf("optimize key %d seed %d", b, cfg.Seed)
				feedTelemetry(t, fab, obs)
				snap := fab.SnapshotFlows()
				var got, want OptimizeResult
				got, err = fab.Optimize(cfg)
				want, refErr = ref.optimize(snap, cfg)
				if err == nil && refErr == nil && (got.Swapped != want.Swapped || got.Best != want.Best) {
					t.Fatalf("step %d (%s): swapped %v to %s, the reference %v to %s", step, what, got.Swapped, got.Best, want.Swapped, want.Best)
				}
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("step %d (%s) on %s: fabric returned %v, the reference %v", step, what, tp, err, refErr)
			}
			gen := fab.Generation()
			for i, fl := range ref.pairs.Flows {
				want := PackedUnreachable
				if r := ref.routes[i]; r.Up != nil {
					want = packRoute(r)
				}
				if got := gen.lookup(uint64(fl.Src), uint64(fl.Dst)); got != want {
					t.Fatalf("step %d (%s) on %s: pair (%d,%d) serves %#x, the from-scratch table has %#x", step, what, tp, fl.Src, fl.Dst, got, want)
				}
			}
			if err := contention.VerifyDeadlockFree(tp, gen.Routes()); err != nil {
				t.Fatalf("step %d (%s) on %s: %v", step, what, tp, err)
			}
		}
	})
}
