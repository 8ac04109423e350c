package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/stats"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// fastOpt keeps test sweeps small: a few topologies, few seeds,
// analytic engine.
func fastOpt() Options {
	return Options{
		Engine:   Analytic,
		Seeds:    5,
		W2Values: []int{16, 10, 4, 1},
	}
}

func TestAppByName(t *testing.T) {
	for _, name := range []string{"wrf", "cg", "WRF-256", "CG.D-128"} {
		app, err := AppByName(name)
		if err != nil {
			t.Errorf("AppByName(%q): %v", name, err)
			continue
		}
		if app.Ranks == 0 || len(app.Phases(0)) == 0 {
			t.Errorf("app %q is empty", name)
		}
	}
	if _, err := AppByName("hpl"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestAppPhasesScaleBytes(t *testing.T) {
	app := CGApp()
	small := app.Phases(100)
	if small[0].Flows[0].Bytes != 100 {
		t.Errorf("scaled phase bytes = %d", small[0].Flows[0].Bytes)
	}
	def := app.Phases(0)
	if def[0].Flows[0].Bytes != app.DefaultBytes {
		t.Errorf("default phase bytes = %d", def[0].Flows[0].Bytes)
	}
}

func TestAppTrace(t *testing.T) {
	for _, app := range []*App{WRFApp(), CGApp()} {
		tr, err := app.Trace(1024)
		if err != nil {
			t.Fatalf("%s trace: %v", app.Name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s trace invalid: %v", app.Name, err)
		}
	}
}

func TestFigure2ShapesWRF(t *testing.T) {
	rows, err := Figure2(WRFApp(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	full := rows[0] // w2 = 16
	// Paper Fig. 2a: on the full tree, Random is worse than the
	// mod-k schemes, which match Colored.
	if full.Random <= full.DModK {
		t.Errorf("w2=16: random %.2f not worse than d-mod-k %.2f", full.Random, full.DModK)
	}
	if full.DModK > full.Colored*1.05 {
		t.Errorf("w2=16: d-mod-k %.2f above colored %.2f", full.DModK, full.Colored)
	}
	// Slimming to w2=1 degrades every scheme heavily.
	last := rows[len(rows)-1]
	if last.DModK < 8 || last.Random < 8 {
		t.Errorf("w2=1 slowdowns %.2f/%.2f too small", last.DModK, last.Random)
	}
}

func TestFigure2ShapesCG(t *testing.T) {
	rows, err := Figure2(CGApp(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	full := rows[0]
	// Paper Fig. 2b: the mod-k schemes hit the pathology (~2.2x),
	// Random sits between them and Colored (~1).
	if full.DModK < 2 {
		t.Errorf("w2=16: d-mod-k %.2f does not show the pathology", full.DModK)
	}
	if full.SModK != full.DModK {
		t.Errorf("w2=16: s-mod-k %.2f != d-mod-k %.2f on symmetric CG", full.SModK, full.DModK)
	}
	if full.Random >= full.DModK {
		t.Errorf("w2=16: random %.2f not better than d-mod-k %.2f", full.Random, full.DModK)
	}
	if full.Colored > 1.1 {
		t.Errorf("w2=16: colored %.2f, want ~1", full.Colored)
	}
}

func TestFigure5ShapesCG(t *testing.T) {
	rows, err := Figure5(CGApp(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	full := rows[0]
	// Paper Fig. 5b: r-NCA-u/d avoid the mod-k pathology and their
	// medians beat Random's.
	if full.RNCAUp.Median >= full.DModK {
		t.Errorf("r-NCA-u median %.2f not better than d-mod-k %.2f", full.RNCAUp.Median, full.DModK)
	}
	if full.RNCAUp.Median > full.Random.Median {
		t.Errorf("r-NCA-u median %.2f worse than random %.2f", full.RNCAUp.Median, full.Random.Median)
	}
	if full.RNCADn.Median > full.Random.Median {
		t.Errorf("r-NCA-d median %.2f worse than random %.2f", full.RNCADn.Median, full.Random.Median)
	}
}

func TestFigure5ShapesWRF(t *testing.T) {
	rows, err := Figure5(WRFApp(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	full := rows[0]
	// Paper Fig. 5a: r-NCA-* stay below Random on WRF.
	if full.RNCAUp.Median > full.Random.Median {
		t.Errorf("r-NCA-u median %.2f worse than random %.2f", full.RNCAUp.Median, full.Random.Median)
	}
}

func TestFigure5SimulatedEngineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated engine in -short mode")
	}
	opt := Options{
		Engine:       Simulated,
		Seeds:        2,
		MessageBytes: 8 * 1024,
		W2Values:     []int{16},
	}
	rows, err := Figure5(CGApp(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].DModK < 1.5 {
		t.Errorf("simulated d-mod-k slowdown %.2f, want pathology > 1.5", rows[0].DModK)
	}
	if rows[0].RNCAUp.Median >= rows[0].DModK {
		t.Errorf("simulated r-NCA-u %.2f not better than d-mod-k %.2f", rows[0].RNCAUp.Median, rows[0].DModK)
	}
}

// TestFigure2SimulatedMatchesPerCellReference recomputes every cell
// of a small simulated sweep the way cells used to be scored: its own
// trace, its own crossbar replay (dimemas.MeasuredSlowdown). The sweep
// shares one trace and one reference among workers, four at a time
// here so the race detector sees the sharing.
func TestFigure2SimulatedMatchesPerCellReference(t *testing.T) {
	app := CGApp()
	opt := Options{
		Engine:       Simulated,
		Seeds:        2,
		MessageBytes: 2048,
		W2Values:     []int{16, 10, 4},
		Parallelism:  4,
	}
	rows, err := Figure2(app, opt)
	if err != nil {
		t.Fatal(err)
	}
	phases := app.Phases(opt.MessageBytes)
	own := func(tp *xgft.Topology, algo core.Algorithm) float64 {
		t.Helper()
		tr, err := app.Trace(opt.MessageBytes)
		if err != nil {
			t.Fatal(err)
		}
		s, err := dimemas.MeasuredSlowdown(tr, tp, algo, dimemas.Config{Net: venus.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i, w2 := range opt.W2Values {
		tp, err := xgft.NewSlimmedTree(16, 16, w2)
		if err != nil {
			t.Fatal(err)
		}
		random := make([]float64, opt.Seeds)
		for seed := range random {
			random[seed] = own(tp, core.NewRandom(tp, uint64(seed)+1))
		}
		want := Fig2Row{
			W2:       w2,
			Random:   stats.Summarize(random).Median,
			SModK:    own(tp, core.NewSModK(tp)),
			DModK:    own(tp, core.NewDModK(tp)),
			Colored:  own(tp, core.NewColored(tp, phases, core.ColoredConfig{})),
			Crossbar: 1,
		}
		if rows[i] != want {
			t.Errorf("w2=%d: sweep row %+v, per-cell reference %+v", w2, rows[i], want)
		}
	}
}

func TestFigure4Shapes(t *testing.T) {
	// Fig. 4a: flat 3840 for mod-k at w2=16.
	a, err := Figure4(16, Options{Seeds: 5})
	if err != nil {
		t.Fatal(err)
	}
	for root, c := range a.SModK {
		if c != 3840 {
			t.Errorf("4a s-mod-k root %d = %d, want 3840", root, c)
		}
	}
	// Fig. 4b: bimodal for mod-k at w2=10; r-NCA medians closer to
	// the 6144 mean than the mod-k extremes.
	b, err := Figure4(10, Options{Seeds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Roots != 10 {
		t.Fatalf("roots = %d", b.Roots)
	}
	for root := 0; root < 6; root++ {
		if b.DModK[root] != 7680 {
			t.Errorf("4b d-mod-k root %d = %d, want 7680", root, b.DModK[root])
		}
	}
	for root := 6; root < 10; root++ {
		if b.DModK[root] != 3840 {
			t.Errorf("4b d-mod-k root %d = %d, want 3840", root, b.DModK[root])
		}
	}
	for root := 0; root < 10; root++ {
		med := b.RNCAUp[root].Median
		if med < 4500 || med > 7500 {
			t.Errorf("4b r-NCA-u root %d median %.0f far from mean 6144", root, med)
		}
	}
}

func TestFigure3(t *testing.T) {
	res, err := Figure3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseFactor) != 5 {
		t.Fatalf("phases = %d", len(res.PhaseFactor))
	}
	for i := 0; i < 4; i++ {
		if res.PhaseFactor[i] != 1 {
			t.Errorf("local phase %d factor %.2f, want 1", i+1, res.PhaseFactor[i])
		}
	}
	if res.PhaseFactor[4] < 6.5 || res.PhaseFactor[4] > 7.5 {
		t.Errorf("transpose factor %.2f, want ~7", res.PhaseFactor[4])
	}
	if len(res.Matrix) != 128 {
		t.Errorf("matrix size %d", len(res.Matrix))
	}
}

func TestTable1(t *testing.T) {
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	rows := Table1(tp)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Nodes != 256 || rows[1].Nodes != 16 || rows[2].Nodes != 10 {
		t.Errorf("node counts = %d/%d/%d", rows[0].Nodes, rows[1].Nodes, rows[2].Nodes)
	}
	if rows[0].LabelForm != "<M2,M1>" {
		t.Errorf("leaf label form = %s", rows[0].LabelForm)
	}
	if rows[1].LabelForm != "<M2,W1>" {
		t.Errorf("switch label form = %s", rows[1].LabelForm)
	}
	if rows[2].LabelForm != "<W2,W1>" {
		t.Errorf("root label form = %s", rows[2].LabelForm)
	}
	if rows[0].UpLinks != 256 || rows[1].UpLinks != 160 {
		t.Errorf("up links = %d/%d", rows[0].UpLinks, rows[1].UpLinks)
	}
}

func TestRenderers(t *testing.T) {
	opt := fastOpt()
	opt.W2Values = []int{16, 1}
	opt.Seeds = 2
	app := CGApp()
	f2, err := Figure2(app, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteFigure2(&buf, app, f2)
	if !strings.Contains(buf.String(), "d-mod-k") {
		t.Error("figure 2 text missing header")
	}
	buf.Reset()
	WriteFigure2CSV(&buf, f2)
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Errorf("figure 2 CSV has %d lines, want 3", lines)
	}

	f5, err := Figure5(app, opt)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	WriteFigure5(&buf, app, f5)
	if !strings.Contains(buf.String(), "r-NCA-u") {
		t.Error("figure 5 text missing header")
	}
	buf.Reset()
	WriteFigure5CSV(&buf, f5)
	if !strings.Contains(buf.String(), "rncau_med") {
		t.Error("figure 5 CSV missing header")
	}

	f4, err := Figure4(10, Options{Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	WriteFigure4(&buf, f4)
	if !strings.Contains(buf.String(), "NCA") {
		t.Error("figure 4 text missing header")
	}

	f3, err := Figure3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	WriteFigure3(&buf, f3)
	if !strings.Contains(buf.String(), "phase 5") {
		t.Error("figure 3 text missing phases")
	}

	tp, _ := xgft.NewSlimmedTree(16, 16, 10)
	buf.Reset()
	WriteTable1(&buf, tp, Table1(tp))
	if !strings.Contains(buf.String(), "Eq. 1") {
		t.Error("table 1 text missing Eq. 1")
	}
}

func TestRunCellsParallelAndErrors(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	err := runCells(20, 4, nil, func(i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Errorf("visited %d of 20", len(seen))
	}
	wantErr := runCells(10, 3, nil, func(i int) error {
		if i == 7 {
			return errTest
		}
		return nil
	})
	if wantErr != errTest {
		t.Errorf("error not propagated: %v", wantErr)
	}
}

var errTest = errDummy{}

type errDummy struct{}

func (errDummy) Error() string { return "test error" }
