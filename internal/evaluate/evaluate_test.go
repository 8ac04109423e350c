package evaluate

import (
	"math"
	"strings"
	"testing"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/venus"
	"repro/internal/xgft"
)

func mustTree(t *testing.T, m1, m2, w2 int) *xgft.Topology {
	t.Helper()
	tp, err := xgft.NewSlimmedTree(m1, m2, w2)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// The analytic backend must be bit-identical to the contention-package
// entry points (the library surface behind repro.AnalyticSlowdown):
// cached or not, phased or single, by algorithm or by explicit routes,
// not a single bit of any sweep's output may depend on the door used.
func TestAnalyticMatchesContention(t *testing.T) {
	tp := mustTree(t, 8, 8, 4)
	phases, err := pattern.CGPhases(32, 4096)
	if err != nil {
		t.Fatal(err)
	}
	algo := core.NewDModK(tp)
	cache := core.NewTableCache(16)
	ev := NewAnalytic(cache)

	want, err := contention.PhasedSlowdown(tp, algo, phases)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Score(tp, algo, phases)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown != want {
		t.Errorf("Score = %v, want %v (bit-identical)", res.Slowdown, want)
	}
	if len(res.PerPhase) != len(phases) {
		t.Fatalf("PerPhase has %d entries for %d phases", len(res.PerPhase), len(phases))
	}
	if res.Cost.Tables != len(phases) {
		t.Errorf("Cost.Tables = %d, want %d", res.Cost.Tables, len(phases))
	}
	for i, p := range phases {
		ws, err := contention.Slowdown(tp, algo, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.PerPhase[i] != ws {
			t.Errorf("PerPhase[%d] = %v, want %v", i, res.PerPhase[i], ws)
		}
	}

	// Explicit-route form against the full census and the pattern's
	// own crossbar bound.
	p := phases[len(phases)-1]
	tbl, err := core.BuildTable(tp, algo, p)
	if err != nil {
		t.Fatal(err)
	}
	an, err := contention.Analyze(tp, p, tbl.Routes)
	if err != nil {
		t.Fatal(err)
	}
	want = float64(an.CompletionBound()) / float64(contention.CrossbarBound(p))
	rres, err := ev.ScoreRoutes(tp, p, tbl.Routes)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Slowdown != want {
		t.Errorf("ScoreRoutes = %v, want %v (bit-identical)", rres.Slowdown, want)
	}
}

func TestAnalyticNoPhases(t *testing.T) {
	tp := mustTree(t, 4, 4, 2)
	for _, ev := range []Evaluator{NewAnalytic(nil), NewGrouped(nil), NewVenus(nil, venus0())} {
		if _, err := ev.Score(tp, core.NewDModK(tp), nil); err == nil {
			t.Errorf("%s: scoring zero phases did not error", ev.Name())
		}
	}
}

// Traffic-free patterns score 1 (the crossbar-normalized ideal) on
// every backend, so rank comparisons never divide by zero.
func TestTrafficFreePatternScoresOne(t *testing.T) {
	tp := mustTree(t, 4, 4, 2)
	algo := core.NewDModK(tp)
	p := pattern.New(tp.Leaves()) // no flows at all
	for _, ev := range []Evaluator{NewAnalytic(nil), NewGrouped(nil), NewVenus(nil, venus0())} {
		res, err := ev.Score(tp, algo, []*pattern.Pattern{p})
		if err != nil {
			t.Fatalf("%s: %v", ev.Name(), err)
		}
		if res.Slowdown != 1 {
			t.Errorf("%s: traffic-free slowdown = %v, want 1", ev.Name(), res.Slowdown)
		}
	}
}

// The grouped metric: a shift permutation routed by d-mod-k on the
// full tree is contention-free (level 1); two sources funneled onto
// one channel are two endpoint groups (level 2).
func TestGroupedContentionLevels(t *testing.T) {
	tp := mustTree(t, 4, 4, 4)
	ev := NewGrouped(nil)

	shift := pattern.Shift(tp.Leaves(), 4, 1024)
	res, err := ev.Score(tp, core.NewDModK(tp), []*pattern.Pattern{shift})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown != 1 {
		t.Errorf("d-mod-k shift grouped level = %v, want 1", res.Slowdown)
	}

	// Two different sources to destinations in the same mod-k class
	// must share the d-mod-k down channel: two groups.
	funnel := pattern.New(tp.Leaves())
	funnel.Add(0, 5, 1024)
	funnel.Add(1, 9, 1024)
	tbl, err := core.BuildTable(tp, core.NewDModK(tp), funnel)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := ev.ScoreRoutes(tp, funnel, tbl.Routes)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Slowdown != 2 {
		t.Errorf("funnel grouped level = %v, want 2", rres.Slowdown)
	}
}

// venus0 selects the default simulator configuration (the zero value
// of venus.Config resolves to venus.DefaultConfig in NewVenus).
func venus0() venus.Config { return venus.Config{} }

// TestVenusKnownAnswerCollision is the backend's known-answer test: a
// hand-built two-flow collision — both flows forced through the single
// up/down wire pair of XGFT(2;2,2;1,1) — must take twice as long as on
// the crossbar, where the two flows ride disjoint adapters. The
// simulated slowdown must come out ~2 (segmentation and wire latency
// allow a small tolerance).
func TestVenusKnownAnswerCollision(t *testing.T) {
	tp, err := xgft.New(2, []int{2, 2}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.New(4)
	p.Add(0, 2, 256*1024)
	p.Add(1, 3, 256*1024)
	routes := []xgft.Route{
		{Src: 0, Dst: 2, Up: []int{0, 0}},
		{Src: 1, Dst: 3, Up: []int{0, 0}},
	}
	ev := NewVenus(nil, venus0())
	res, err := ev.ScoreRoutes(tp, p, routes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Slowdown-2) > 0.05 {
		t.Errorf("two-flow collision simulated slowdown = %v, want ~2", res.Slowdown)
	}
	if res.Cost.SimEvents == 0 {
		t.Error("Cost.SimEvents = 0 after a simulation")
	}
}

// The venus backend must agree with the analytic bound's ranking on a
// case the bound gets exactly right: the collision pattern above under
// the colliding routes vs disjoint-NCA routes.
func TestVenusPrefersDisjointRoutes(t *testing.T) {
	tp := mustTree(t, 4, 4, 4)
	p := pattern.New(tp.Leaves())
	p.Add(0, 5, 64*1024)
	p.Add(1, 9, 64*1024)
	collide, err := core.BuildTable(tp, core.NewDModK(tp), p)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built disjoint alternative: different up ports, hence
	// different roots and disjoint down paths.
	disjoint := []xgft.Route{
		{Src: 0, Dst: 5, Up: []int{0, 1}},
		{Src: 1, Dst: 9, Up: []int{0, 2}},
	}
	ev := NewVenus(nil, venus0())
	rc, err := ev.ScoreRoutes(tp, p, collide.Routes)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ev.ScoreRoutes(tp, p, disjoint)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Slowdown <= rd.Slowdown {
		t.Errorf("colliding routes %v not slower than disjoint routes %v", rc.Slowdown, rd.Slowdown)
	}
}

// Score and ScoreRoutes must agree when the routes are the table the
// algorithm would build: the two entry points are different plumbing
// for the same evaluation.
func TestScoreAgreesWithScoreRoutes(t *testing.T) {
	tp := mustTree(t, 4, 4, 2)
	p := pattern.KeyedRandomPermutation(tp.Leaves(), 8192, 7)
	algo := core.NewRandomNCAUp(tp, 3)
	tbl, err := core.BuildTable(tp, algo, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []Evaluator{NewAnalytic(nil), NewGrouped(nil), NewVenus(nil, venus0())} {
		s, err := ev.Score(tp, algo, []*pattern.Pattern{p})
		if err != nil {
			t.Fatalf("%s: %v", ev.Name(), err)
		}
		r, err := ev.ScoreRoutes(tp, p, tbl.Routes)
		if err != nil {
			t.Fatalf("%s: %v", ev.Name(), err)
		}
		if s.Slowdown != r.Slowdown {
			t.Errorf("%s: Score %v != ScoreRoutes %v", ev.Name(), s.Slowdown, r.Slowdown)
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		ev, err := New(name, Options{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if ev.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, ev.Name())
		}
	}
	if ev, err := New("", Options{}); err != nil || ev.Name() != Analytic {
		t.Errorf("New(\"\") = %v, %v; want the analytic default", ev, err)
	}
	if _, err := New("flip-a-coin", Options{}); err == nil {
		t.Error("unknown backend did not error")
	}
}

// A phase over MaxVenusSegments is refused before anything simulates:
// two 10⁹-byte flows are about 1.95M segments of 1 KiB.
func TestVenusRefusesOversizedPhase(t *testing.T) {
	tp := mustTree(t, 4, 4, 4)
	p := pattern.New(tp.Leaves())
	p.Add(0, 5, 1e9)
	p.Add(1, 9, 1e9)
	tbl, err := core.BuildTable(tp, core.NewDModK(tp), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewVenus(nil, venus0()).ScoreRoutes(tp, p, tbl.Routes)
	if err == nil || !strings.Contains(err.Error(), "segments a simulation may inject") || res.Cost.SimEvents != 0 {
		t.Fatalf("ScoreRoutes over %d-byte flows = %+v, %v; want the segment refusal", p.Flows[0].Bytes, res, err)
	}
	if _, err := NewVenus(nil, venus0()).Score(tp, core.NewDModK(tp), []*pattern.Pattern{p}); err == nil {
		t.Fatal("Score simulated the oversized phase")
	}
}
