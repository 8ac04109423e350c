package contention

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

func paperTree(t testing.TB, w2 int) *xgft.Topology {
	t.Helper()
	tp, err := xgft.NewSlimmedTree(16, 16, w2)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func analyze(t testing.TB, tp *xgft.Topology, algo core.Algorithm, p *pattern.Pattern) *Analysis {
	t.Helper()
	tbl, err := core.BuildTable(tp, algo, p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(tp, p, tbl.Routes)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyzeConservation(t *testing.T) {
	// Every byte injected crosses level-0 up channels exactly once,
	// and every ejected byte crosses level-0 down channels once.
	tp := paperTree(t, 10)
	p := pattern.WRF256()
	a := analyze(t, tp, core.NewDModK(tp), p)
	var inject, upL0, eject, downL0 int64
	for _, b := range a.InjectBytes {
		inject += b
	}
	for _, b := range a.EjectBytes {
		eject += b
	}
	for ch := 0; ch < tp.ChannelsAt(0); ch++ {
		upL0 += a.UpBytes[ch]
		downL0 += a.DownBytes[ch]
	}
	if inject != upL0 {
		t.Errorf("injected %d != level-0 up %d", inject, upL0)
	}
	if eject != downL0 {
		t.Errorf("ejected %d != level-0 down %d", eject, downL0)
	}
	if inject != p.TotalBytes() {
		t.Errorf("injected %d != pattern total %d", inject, p.TotalBytes())
	}
}

func TestAnalyzeMismatches(t *testing.T) {
	tp := paperTree(t, 16)
	p := pattern.New(256)
	p.Add(0, 16, 100)
	if _, err := Analyze(tp, p, nil); err == nil {
		t.Error("route/flow count mismatch accepted")
	}
	wrong := []xgft.Route{{Src: 1, Dst: 16, Up: []int{0, 0}}}
	if _, err := Analyze(tp, p, wrong); err == nil {
		t.Error("misaligned route endpoints accepted")
	}
	// Pattern.Flows is an exported slice callers append to directly, so
	// an endpoint outside the tree must be an error, not an index panic
	// — on either side, at either end of the range.
	for _, ends := range [][2]int{{256, 3}, {3, 256}, {-1, 3}, {3, -1}} {
		q := &pattern.Pattern{N: 512, Flows: []pattern.Flow{{Src: ends[0], Dst: ends[1], Bytes: 1}}}
		r := []xgft.Route{{Src: ends[0], Dst: ends[1], Up: []int{0, 0}}}
		if _, err := Analyze(tp, q, r); err == nil {
			t.Errorf("flow (%d,%d) outside [0,256) accepted", ends[0], ends[1])
		}
	}
	// A route the tree cannot hold: too many levels, or a port past its
	// level's radix.
	for _, up := range [][]int{{0, 0, 0}, {1, 0}, {0, 16}, {0, -1}} {
		if _, err := Analyze(tp, p, []xgft.Route{{Src: 0, Dst: 16, Up: up}}); err == nil {
			t.Errorf("ascent %v accepted on %v", up, tp)
		}
	}
}

func TestEndpointVsNetworkContention(t *testing.T) {
	// Two flows from one source share their ascent under S-mod-k:
	// endpoint contention 2, network contention 1.
	tp := paperTree(t, 16)
	p := pattern.New(256)
	p.Add(0, 17, 100)
	p.Add(0, 33, 100)
	a := analyze(t, tp, core.NewSModK(tp), p)
	if got := a.MaxEndpointContention(); got != 2 {
		t.Errorf("endpoint contention = %d, want 2", got)
	}
	if got := a.MaxNetworkContention(); got != 1 {
		t.Errorf("network contention = %d, want 1 (same-source flows share for free)", got)
	}
	if got := a.MaxFlowsPerChannel(); got != 2 {
		t.Errorf("flows per channel = %d, want 2", got)
	}
}

func TestCGPhase5DModKPathology(t *testing.T) {
	// §VII-A: under D-mod-k on the full 16-ary 2-tree, CG's fifth
	// phase funnels the 16 flows of each switch through 2 up ports:
	// 8 distinct-source flows per channel, an 8x slowdown.
	tp := paperTree(t, 16)
	ph, err := pattern.CGTransposePhase(128, pattern.DefaultCGPhaseBytes)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports "eight times longer": 8 even and 8 odd
	// sources per switch share one port each. Two of the sixteen are
	// the diagonal fixed points of the transpose, which exchange
	// locally, so the network carries 7 distinct-source flows per
	// port (README.md, "Substitutions and known deviations").
	a := analyze(t, tp, core.NewDModK(tp), ph)
	if got := a.MaxNetworkContention(); got != 7 {
		t.Errorf("D-mod-k network contention = %d, want 7", got)
	}
	s, err := Slowdown(tp, core.NewDModK(tp), ph)
	if err != nil {
		t.Fatal(err)
	}
	if s < 6.9 || s > 7.1 {
		t.Errorf("D-mod-k phase-5 slowdown = %.2f, want ~7", s)
	}
}

func TestCGPhase5SModKSameAsDModK(t *testing.T) {
	// The CG transpose is (nearly) symmetric; the paper observes
	// S-mod-k and D-mod-k perform identically on it.
	tp := paperTree(t, 16)
	ph, err := pattern.CGTransposePhase(128, pattern.DefaultCGPhaseBytes)
	if err != nil {
		t.Fatal(err)
	}
	sS, err := Slowdown(tp, core.NewSModK(tp), ph)
	if err != nil {
		t.Fatal(err)
	}
	sD, err := Slowdown(tp, core.NewDModK(tp), ph)
	if err != nil {
		t.Fatal(err)
	}
	if sS != sD {
		t.Errorf("S-mod-k %.3f != D-mod-k %.3f on symmetric pattern", sS, sD)
	}
}

func TestCGFullRunFactorOfTwo(t *testing.T) {
	// §VII-A: the 8x fifth phase degrades the whole five-phase run by
	// "more than a factor of two": (4 + 8)/5 = 2.4 analytically.
	tp := paperTree(t, 16)
	phases := pattern.CGD128Phases()
	s, err := PhasedSlowdown(tp, core.NewDModK(tp), phases)
	if err != nil {
		t.Fatal(err)
	}
	if s < 2.0 || s > 2.8 {
		t.Errorf("CG.D-128 D-mod-k slowdown = %.2f, want ~2.4", s)
	}
}

func TestColoredRemovesCGPathology(t *testing.T) {
	tp := paperTree(t, 16)
	phases := pattern.CGD128Phases()
	col := core.NewColored(tp, phases, core.ColoredConfig{})
	s, err := PhasedSlowdown(tp, col, phases)
	if err != nil {
		t.Fatal(err)
	}
	if s > 1.05 {
		t.Errorf("colored CG slowdown = %.2f, want ~1 (conflict-free phases)", s)
	}
}

func TestWRFDModKNearOptimal(t *testing.T) {
	// WRF's pairwise exchange is routed without extra network
	// contention by D-mod-k on the full tree: slowdown 1.
	tp := paperTree(t, 16)
	p := pattern.WRF256()
	s, err := Slowdown(tp, core.NewDModK(tp), p)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("WRF D-mod-k slowdown = %.3f, want 1", s)
	}
}

func TestWRFRandomWorseThanModK(t *testing.T) {
	// Fig. 2a: Random is worse than S-mod-k/D-mod-k for WRF.
	tp := paperTree(t, 16)
	p := pattern.WRF256()
	sRand, err := Slowdown(tp, core.NewRandom(tp, 17), p)
	if err != nil {
		t.Fatal(err)
	}
	sMod, err := Slowdown(tp, core.NewDModK(tp), p)
	if err != nil {
		t.Fatal(err)
	}
	if sRand <= sMod {
		t.Errorf("random %.3f not worse than d-mod-k %.3f on WRF", sRand, sMod)
	}
}

func TestSlimmingMonotonicity(t *testing.T) {
	// Shrinking w2 cannot improve the analytic bound for a
	// per-destination-concentrating scheme on WRF.
	p := pattern.WRF256()
	prev := 0.0
	for w2 := 16; w2 >= 1; w2-- {
		tp := paperTree(t, w2)
		s, err := Slowdown(tp, core.NewDModK(tp), p)
		if err != nil {
			t.Fatal(err)
		}
		if s+1e-9 < prev {
			t.Errorf("slowdown dropped from %.3f to %.3f when slimming to w2=%d", prev, s, w2)
		}
		prev = s
	}
	// Fully slimmed tree: a single root must carry everything.
	tp := paperTree(t, 1)
	s, err := Slowdown(tp, core.NewDModK(tp), p)
	if err != nil {
		t.Fatal(err)
	}
	if s < 8 {
		t.Errorf("w2=1 slowdown = %.2f, want heavy congestion (>=8)", s)
	}
}

func TestSlowdownAtLeastOne(t *testing.T) {
	tp := paperTree(t, 16)
	for trial := 0; trial < 10; trial++ {
		p := pattern.KeyedRandomPermutation(256, 1000, uint64(trial)+1)
		for _, algo := range []core.Algorithm{core.NewSModK(tp), core.NewRandom(tp, uint64(trial))} {
			s, err := Slowdown(tp, algo, p)
			if err != nil {
				t.Fatal(err)
			}
			if s < 1 {
				t.Errorf("%s slowdown %.3f < 1", algo.Name(), s)
			}
		}
	}
}

func TestPhaseBounds(t *testing.T) {
	tp := paperTree(t, 16)
	phases := pattern.CGD128Phases()
	network, crossbar, err := PhaseBoundsCached(nil, tp, core.NewDModK(tp), phases)
	if err != nil {
		t.Fatal(err)
	}
	if len(network) != 5 || len(crossbar) != 5 {
		t.Fatalf("bounds lengths %d/%d, want 5/5", len(network), len(crossbar))
	}
	for i := 0; i < 4; i++ {
		if network[i] != crossbar[i] {
			t.Errorf("local phase %d has network bound %d != crossbar %d", i, network[i], crossbar[i])
		}
	}
	if network[4] != 7*crossbar[4] {
		t.Errorf("phase 5 network bound %d, want 7x crossbar %d", network[4], crossbar[4])
	}
}

// TestPhaseBoundsMatchFreshLoadsPerPhase holds the loads
// PhaseBoundsCached reuses across phases to a fresh ByteLoads per
// phase, on phases that shrink: a later phase touching fewer channels
// and leaves, with fewer bytes, than an earlier one reads the earlier
// phase's maxima unless the loads are cleared in between. The trees
// alternate between 256 and 16 leaves, so pooled scratch is resized
// both ways, and tables come from a cache as well as from scratch.
func TestPhaseBoundsMatchFreshLoadsPerPhase(t *testing.T) {
	for _, c := range []*core.TableCache{nil, core.NewTableCache(8)} {
		for _, tp := range []*xgft.Topology{paperTree(t, 10), xgft.MustNew(2, []int{4, 4}, []int{1, 2}), paperTree(t, 16)} {
			n := tp.Leaves()
			phases := []*pattern.Pattern{
				pattern.KeyedRandomPermutation(n, 5000, 1),
				{N: n, Flows: []pattern.Flow{{Src: 3, Dst: n - 1, Bytes: 10}, {Src: 7, Dst: 7, Bytes: 99}}},
				pattern.KeyedRandomPermutation(n, 100, 2),
				{N: n},
			}
			for _, algo := range []core.Algorithm{core.NewDModK(tp), core.NewRandom(tp, 3), core.NewFixedTable(tp, "fixed", core.NewSModK(tp))} {
				network, crossbar, err := PhaseBoundsCached(c, tp, algo, phases)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range phases {
					tbl, err := core.BuildTable(tp, algo, p)
					if err != nil {
						t.Fatal(err)
					}
					l, err := ByteLoads(tp, p, tbl.Routes)
					if err != nil {
						t.Fatal(err)
					}
					if network[i] != l.CompletionBound() || crossbar[i] != l.CrossbarBound() {
						t.Errorf("%s on %s phase %d: bounds %d/%d, fresh loads %d/%d", algo.Name(), tp, i, network[i], crossbar[i], l.CompletionBound(), l.CrossbarBound())
					}
				}
				if network[1] != 10 || network[3] != 0 {
					t.Errorf("%s on %s: shrinking phases bound %d and %d, want 10 and 0", algo.Name(), tp, network[1], network[3])
				}
			}
		}
	}
}

func TestPhasedSlowdownErrors(t *testing.T) {
	tp := paperTree(t, 16)
	if _, err := PhasedSlowdown(tp, core.NewDModK(tp), nil); err == nil {
		t.Error("empty phase list accepted")
	}
	// A pattern over more endpoints than the tree has leaves fails
	// whether its table is built into scratch or through the cache.
	big := []*pattern.Pattern{pattern.KeyedRandomPermutation(2*tp.Leaves(), 64, 1)}
	for _, c := range []*core.TableCache{nil, core.NewTableCache(8)} {
		if _, _, err := PhaseBoundsCached(c, tp, core.NewDModK(tp), big); err == nil {
			t.Errorf("cache %v: oversized pattern accepted", c != nil)
		}
	}
	// A self-flow needs no valid route, so only the load count sees
	// that its leaf is outside the tree.
	outside := []*pattern.Pattern{{N: tp.Leaves(), Flows: []pattern.Flow{{Src: 300, Dst: 300, Bytes: 1}}}}
	if _, _, err := PhaseBoundsCached(nil, tp, core.NewDModK(tp), outside); err == nil {
		t.Error("self-flow outside the tree accepted")
	}
}

// TestDualityTheorem verifies §VII-B: for any pattern P, the
// contention profile of S-mod-k on P equals the mirrored profile of
// D-mod-k on P's inverse — channel by channel, not just in
// distribution.
func TestDualityTheorem(t *testing.T) {
	tp := paperTree(t, 10)
	patterns := []*pattern.Pattern{
		pattern.WRF256(),
		pattern.KeyedRandomPermutation(256, 100, 99),
		pattern.UniformRandom(256, 3, 100, 99),
		pattern.Shift(256, 37, 100),
	}
	for pi, p := range patterns {
		aS := analyze(t, tp, core.NewSModK(tp), p)
		aD := analyze(t, tp, core.NewDModK(tp), p.Inverse())
		for ch := range aS.UpBytes {
			if aS.UpBytes[ch] != aD.DownBytes[ch] {
				t.Fatalf("pattern %d channel %d: S-up bytes %d != D-down bytes %d", pi, ch, aS.UpBytes[ch], aD.DownBytes[ch])
			}
			if aS.DownBytes[ch] != aD.UpBytes[ch] {
				t.Fatalf("pattern %d channel %d: S-down bytes %d != D-up bytes %d", pi, ch, aS.DownBytes[ch], aD.UpBytes[ch])
			}
			if aS.UpGroups[ch] != aD.DownGroups[ch] || aS.DownGroups[ch] != aD.UpGroups[ch] {
				t.Fatalf("pattern %d channel %d: group profiles differ", pi, ch)
			}
		}
		if aS.CompletionBound() != aD.CompletionBound() {
			t.Fatalf("pattern %d: completion bounds differ", pi)
		}
	}
}

func TestQuickDualityOnRandomPermutations(t *testing.T) {
	tp := paperTree(t, 7)
	f := func(seed int64) bool {
		p := pattern.KeyedRandomPermutation(256, 100, uint64(seed))
		tblS, err := core.BuildTable(tp, core.NewSModK(tp), p)
		if err != nil {
			return false
		}
		tblD, err := core.BuildTable(tp, core.NewDModK(tp), p.Inverse())
		if err != nil {
			return false
		}
		aS, err := Analyze(tp, p, tblS.Routes)
		if err != nil {
			return false
		}
		aD, err := Analyze(tp, p.Inverse(), tblD.Routes)
		if err != nil {
			return false
		}
		return aS.MaxNetworkContention() == aD.MaxNetworkContention() &&
			aS.CompletionBound() == aD.CompletionBound()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGroupProfile(t *testing.T) {
	tp := paperTree(t, 16)
	p := pattern.New(256)
	p.Add(0, 17, 10)
	p.Add(1, 18, 10)
	a := analyze(t, tp, core.NewDModK(tp), p)
	up := a.GroupProfile(true)
	if len(up) == 0 {
		t.Fatal("empty up profile")
	}
	for i := 1; i < len(up); i++ {
		if up[i-1] > up[i] {
			t.Fatal("profile not sorted")
		}
	}
}

func TestCrossbarBound(t *testing.T) {
	p := pattern.New(4)
	p.Add(0, 1, 100)
	p.Add(2, 1, 50)
	if got := CrossbarBound(p); got != 150 {
		t.Errorf("crossbar bound = %d, want 150 (ejection at node 1)", got)
	}
	empty := pattern.New(4)
	if got := CrossbarBound(empty); got != 0 {
		t.Errorf("empty bound = %d", got)
	}
}
