// Command experiments regenerates every table and figure of the
// paper's evaluation and the extension sweeps beside them (README.md,
// "Regenerating the paper's tables and figures", is the index). Every
// section of the report has a flag, listed by -h, and -all selects
// them all:
//
//	experiments -fig2b -fig5b -seeds 40
//	experiments -all -seeds 4 -progress
//
// By default the fast analytic engine is used; -engine simulated runs
// the full trace-replay pipeline (at paper message sizes, -bytes 0,
// `-fig2b -engine simulated -seeds 2` takes about 1.6 s wall and 3.1 s
// CPU on two AMD EPYC vCPUs, down from 71.7 s when every cell replayed
// its own crossbar reference; use -bytes to scale down). -csv switches
// the sweep output format.
//
// Figures 2, 4 and 5 and the -ext, -ablation, -faults, -fidelity and
// -adaptive sweeps declare their cells on one grid, which scores each
// distinct cell once over -parallel workers (default: all CPUs) before
// the first section prints, so their timing lines cover rendering only
// and an error in any of them stops the run before anything prints.
// Table I and Fig. 3 are single calls, and the -shift, -placement and
// -churn sweeps run their own cells when their section prints: each
// cell threads fabric and scheduler state from one step to the next,
// which no grid cell holds. -progress reports cell completion on
// stderr: one count for the grid, then one per stateful sweep.
//
// A mode named by the first argument prints one artifact for one tree
// instead (modes.go): topo, routes and point.
//
//	experiments topo -xgft "3;4,4,4;1,2,2" -labels 1
//	experiments routes -xgft "2;16,16;1,10" -pattern cg-transpose -routes
//	experiments point -xgft "2;16,16;1,8" -app cg -engine analytic
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/xgft"
)

// section is one block of the report, in print order. A grid section
// declares its cells on the shared batch and returns its renderer; any
// other section runs when it prints.
type section struct {
	flag, title string
	skip        string // why -all skips the section under -engine simulated
	grid        func(*experiments.Batch) (func(), error)
	run         func() error
}

// later renders a declared sweep's rows once the batch has run.
func later[T any](write func(io.Writer, T)) func(func() T, error) (func(), error) {
	return func(rows func() T, err error) (func(), error) { return func() { write(os.Stdout, rows()) }, err }
}

// show renders a sweep's result unless computing it failed.
func show[T any](write func(io.Writer, T)) func(T, error) error {
	return func(v T, err error) error {
		if err == nil {
			write(os.Stdout, v)
		}
		return err
	}
}

// usage heads the flag list that -h and a refused invocation print.
const usage = `usage: experiments [section flags]   regenerate the report's sections
       experiments topo [flags]       describe one XGFT: Table I labels, counts
       experiments routes [flags]     one scheme's routing table and contention census
       experiments point [flags]      one Fig. 2/5 slowdown data point
"experiments <mode> -h" lists a mode's flags.

section flags:
`

func main() {
	var mode func([]string, io.Writer) error
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "topo":
			mode = topo
		case "routes":
			mode = routes
		case "point":
			mode = point
		}
	}
	if mode == nil {
		report()
	} else if err := mode(os.Args[2:], os.Stdout); err != nil {
		exit(err)
	}
}

// exit reports err and exits 2: the one failure path of the report and
// every mode.
func exit(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(2)
}

// report prints the sections its flags select.
func report() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		engine   = flag.String("engine", "analytic", "analytic or simulated")
		seeds    = flag.Int("seeds", 40, "seeds per boxplot (paper: 40-60)")
		bytes    = flag.Int64("bytes", 0, "message size override (0 = paper sizes)")
		par      = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep cells")
		progress = flag.Bool("progress", false, "report sweep-cell completion on stderr")
		csv      = flag.Bool("csv", false, "CSV output for sweeps")
		opt      experiments.Options
	)
	type batch = *experiments.Batch
	wrf, cg := experiments.WRFApp(), experiments.CGApp()
	fig2 := func(app *experiments.App) func(io.Writer, []experiments.Fig2Row) {
		if *csv {
			return experiments.WriteFigure2CSV
		}
		return func(w io.Writer, rows []experiments.Fig2Row) { experiments.WriteFigure2(w, app, rows) }
	}
	fig5 := func(app *experiments.App) func(io.Writer, []experiments.Fig5Row) {
		if *csv {
			return experiments.WriteFigure5CSV
		}
		return func(w io.Writer, rows []experiments.Fig5Row) { experiments.WriteFigure5(w, app, rows) }
	}
	// The fault and ablation sections print one block per part.
	fault := func(app *experiments.App, rows []experiments.FaultRow) {
		experiments.WriteFaultSweep(os.Stdout, app, rows)
		fmt.Println()
	}
	ablation := func(row *experiments.AblationRow) {
		experiments.WriteBalanceAblation(os.Stdout, row)
		fmt.Println()
	}
	sections := []section{
		{flag: "table1", title: "Table I", run: func() error {
			for _, spec := range []string{"2;16,16;1,16", "2;16,16;1,10", "3;4,4,4;1,2,2"} {
				tp, err := xgft.Parse(spec)
				if err != nil {
					return err
				}
				experiments.WriteTable1(os.Stdout, tp, experiments.Table1(tp))
				fmt.Println()
			}
			return nil
		}},
		{flag: "fig2a", title: "Figure 2a — WRF-256", grid: func(b batch) (func(), error) { return later(fig2(wrf))(b.Figure2(wrf)) }},
		{flag: "fig2b", title: "Figure 2b — CG.D-128", grid: func(b batch) (func(), error) { return later(fig2(cg))(b.Figure2(cg)) }},
		{flag: "fig3", title: "Figure 3 — CG.D-128 traffic", run: func() error { return show(experiments.WriteFigure3)(experiments.Figure3(opt)) }},
		{flag: "fig4a", title: "Figure 4a — routes per NCA, w2=16", grid: func(b batch) (func(), error) { return later(experiments.WriteFigure4)(b.Figure4(16)) }},
		{flag: "fig4b", title: "Figure 4b — routes per NCA, w2=10", grid: func(b batch) (func(), error) { return later(experiments.WriteFigure4)(b.Figure4(10)) }},
		{flag: "fig5a", title: "Figure 5a — WRF-256 boxplots", grid: func(b batch) (func(), error) { return later(fig5(wrf))(b.Figure5(wrf)) }},
		{flag: "fig5b", title: "Figure 5b — CG.D-128 boxplots", grid: func(b batch) (func(), error) { return later(fig5(cg))(b.Figure5(cg)) }},
		{flag: "ext", title: "Extension — three-level XGFT sweep", grid: func(b batch) (func(), error) { return later(experiments.WriteDeepTreeSweep)(b.DeepTreeSweep()) }},
		{flag: "faults", title: "Extension — degraded topology (failed top-level links)", skip: "analytic engine only", grid: func(b batch) (func(), error) {
			w, errW := b.FaultSweep(wrf)
			c, errC := b.FaultSweep(cg)
			return func() { fault(wrf, w()); fault(cg, c()) }, cmp.Or(errW, errC)
		}},
		{flag: "shift", title: "Extension — shifting traffic (online re-optimization)", skip: "analytic engine only", run: func() error { return show(experiments.WriteShiftSweep)(experiments.ShiftSweep(opt)) }},
		{flag: "placement", title: "Extension — placement churn (multi-tenant scheduler policies)", skip: "analytic engine only", run: func() error { return show(experiments.WritePlacementSweep)(experiments.PlacementSweep(opt)) }},
		{flag: "churn", title: "Extension — churn convergence (placement + re-optimization under link flaps)", skip: "analytic engine only", run: func() error { return show(experiments.WriteChurnSweep)(experiments.ChurnSweep(opt)) }},
		{flag: "fidelity", title: "Extension — analytic vs simulation fidelity", skip: "manages its own backends", grid: func(b batch) (func(), error) { return later(experiments.WriteFidelitySweep)(b.FidelitySweep()) }},
		{flag: "ablation", title: "Ablation — balanced vs uniform relabeling", grid: func(b batch) (func(), error) {
			r10, err10 := b.BalanceAblation(10)
			r6, err6 := b.BalanceAblation(6)
			return func() { ablation(r10()); ablation(r6()) }, cmp.Or(err10, err6)
		}},
		{flag: "adaptive", title: "Extension — adaptive vs oblivious", grid: func(b batch) (func(), error) {
			return later(experiments.WriteAdaptiveComparison)(b.AdaptiveComparison())
		}},
	}
	chosen := make([]*bool, len(sections))
	for i, s := range sections {
		chosen[i] = flag.Bool(s.flag, false, s.title)
	}
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), usage)
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 { // an unknown mode, or arguments after the flags
		flag.Usage()
		os.Exit(2)
	}

	opt = experiments.Options{Engine: experiments.Engine(*engine), Seeds: *seeds, MessageBytes: *bytes, Parallelism: *par}
	if *progress {
		opt.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	fail := func(err error) {
		if *progress {
			// Terminate a partially-written progress line so the
			// error starts on its own line.
			fmt.Fprintln(os.Stderr)
		}
		exit(err)
	}

	// Declare every selected grid section, score the batch once, then
	// print in table order.
	var selected []section
	b := experiments.NewBatch(opt)
	for i, s := range sections {
		switch {
		case !*all && !*chosen[i]:
			continue
		case s.skip != "" && opt.Engine == experiments.Simulated && !*chosen[i]:
			name, _, _ := strings.Cut(s.title, " (")
			s.title, s.grid, s.run = name+" — skipped ("+s.skip+")", nil, nil
		case s.grid != nil:
			render, err := s.grid(b)
			if err != nil {
				fail(err)
			}
			s.run = func() error { render(); return nil }
		}
		selected = append(selected, s)
	}
	if len(selected) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := b.Run(); err != nil {
		fail(err)
	}
	for _, s := range selected {
		fmt.Printf("=== %s ===\n", s.title)
		if s.run == nil {
			fmt.Println()
			continue
		}
		start := time.Now()
		if err := s.run(); err != nil {
			fail(err)
		}
		fmt.Printf("    [%.2fs]\n\n", time.Since(start).Seconds())
	}
}
