// Command xgftsim runs one evaluation: an application trace (or a
// one-shot pattern) scored over an XGFT under a routing scheme,
// reporting the slowdown against the ideal full crossbar — one data
// point of the paper's Figs. 2/5.
//
// The -engine flag selects how the score is obtained. The evaluator
// backends of internal/evaluate score the application's communication
// phases directly:
//
//	analytic   congestion completion bound (fast, byte-exact)
//	grouped    §IV grouped-contention level
//	venus      flit-level event-driven simulation of every phase
//
// while "simulated" (the default) replays the full MPI trace through
// the Dimemas-style engine coupled to the venus network model,
// including rank placement (-mapping).
//
// Usage:
//
//	xgftsim -xgft "2;16,16;1,10" -algo r-NCA-u -app cg -bytes 65536
//	xgftsim -xgft "2;16,16;1,16" -algo random -app wrf -seed 3
//	xgftsim -xgft "2;16,16;1,8" -algo d-mod-k -app cg -engine analytic
//	xgftsim -xgft "2;8,8;1,4" -algo d-mod-k -app cg -engine venus -bytes 4096
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/evaluate"
	"repro/internal/experiments"
	"repro/internal/traces"
	"repro/internal/venus"
	"repro/internal/xgft"
)

func main() {
	var (
		spec    = flag.String("xgft", "2;16,16;1,16", `topology as "h;m1,..;w1,.."`)
		algo    = flag.String("algo", "d-mod-k", "routing scheme: "+strings.Join(core.AlgorithmNames(), ", "))
		app     = flag.String("app", "cg", "application: wrf or cg")
		seed    = flag.Uint64("seed", 1, "seed for randomized schemes")
		bytes   = flag.Int64("bytes", 0, "message size override (0 = paper sizes)")
		engine  = flag.String("engine", "simulated", "simulated (trace replay) or an evaluator backend: "+strings.Join(evaluate.Names(), ", "))
		mapping = flag.String("mapping", "linear", "rank placement: linear, round-robin, random or an explicit leaves:0,17,... allocation (simulated engine only)")
		cut     = flag.Bool("cut-through", false, "virtual cut-through instead of store-and-forward")
	)
	flag.Parse()

	if err := run(*spec, *algo, *app, *seed, *bytes, *engine, *mapping, *cut); err != nil {
		fmt.Fprintln(os.Stderr, "xgftsim:", err)
		os.Exit(2)
	}
}

func run(spec, algoName, appName string, seed uint64, bytes int64, engine, mapping string, cutThrough bool) error {
	tp, err := xgft.Parse(spec)
	if err != nil {
		return err
	}
	app, err := experiments.AppByName(appName)
	if err != nil {
		return err
	}
	if app.Ranks > tp.Leaves() {
		return fmt.Errorf("%s needs %d leaves, topology has %d", app.Name, app.Ranks, tp.Leaves())
	}
	phases := app.Phases(bytes)
	algorithm, err := core.NewByName(algoName, tp, seed, phases)
	if err != nil {
		return err
	}
	fmt.Printf("application %s on %s under %s\n", app.Name, tp, algorithm.Name())

	netCfg := venus.DefaultConfig()
	netCfg.CutThrough = cutThrough

	if engine != "simulated" {
		// Pattern-level scoring through the evaluation layer: one code
		// path for every backend.
		ev, err := evaluate.New(engine, evaluate.Options{Venus: netCfg})
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := ev.Score(tp, algorithm, phases)
		if err != nil {
			return err
		}
		for i, s := range res.PerPhase {
			fmt.Printf("  phase %d: %.3f\n", i, s)
		}
		fmt.Printf("%s slowdown vs full crossbar: %.3f   (wall time %.2fs)\n",
			ev.Name(), res.Slowdown, time.Since(start).Seconds())
		if res.Cost.SimEvents > 0 {
			fmt.Printf("simulated %d events\n", res.Cost.SimEvents)
		}
		return nil
	}

	tr, err := traces.FromPhases(app.Ranks, phases, 1, 0)
	if err != nil {
		return err
	}
	m, err := dimemas.MappingByName(mapping, tp, app.Ranks, int64(seed))
	if err != nil {
		return err
	}
	cfg := dimemas.Config{Net: netCfg, Mapping: m}
	start := time.Now()
	net, err := dimemas.Replay(tr, tp, algorithm, cfg)
	if err != nil {
		return err
	}
	ref, err := dimemas.ReplayOnCrossbar(tr, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("network time:  %12d ns\n", net)
	fmt.Printf("crossbar time: %12d ns\n", ref)
	fmt.Printf("measured slowdown: %.3f   (wall time %.2fs)\n",
		float64(net)/float64(ref), time.Since(start).Seconds())
	return nil
}
