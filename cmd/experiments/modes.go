package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/evaluate"
	"repro/internal/experiments"
	"repro/internal/pattern"
	"repro/internal/traces"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// The modes each print one artifact of the report for one tree: topo
// Table I's labels, routes one scheme's routing table with its §IV
// contention census, point one Fig. 2/5 slowdown. A mode takes its
// arguments after the mode name and writes its report to w.

// topo describes an XGFT: the Table I label schema, node and link
// counts per level, and the Eq. (1) switch count.
//
//	experiments topo -xgft "2;16,16;1,10"
//	experiments topo -kary 16 -n 2
//	experiments topo -xgft "3;4,4,4;1,2,2" -labels 1
func topo(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments topo", flag.ExitOnError)
	spec := fs.String("xgft", "", `topology as "h;m1,..,mh;w1,..,wh" (e.g. "2;16,16;1,10")`)
	kary := fs.Int("kary", 0, "build a k-ary n-tree with this k (with -n)")
	levels := fs.Int("n", 0, "number of levels for -kary")
	labels := fs.Int("labels", -1, "also print every node label of this level")
	fs.Parse(args)

	var tp *xgft.Topology
	var err error
	switch {
	case *spec != "" && *kary != 0:
		err = errors.New("give either -xgft or -kary, not both")
	case *spec != "":
		tp, err = xgft.Parse(*spec)
	case *kary != 0 && *levels <= 0:
		err = errors.New("-kary needs -n")
	case *kary != 0:
		tp, err = xgft.NewKaryNTree(*kary, *levels)
	default:
		err = errors.New("give -xgft or -kary (see -help)")
	}
	if err != nil {
		return err
	}

	experiments.WriteTable1(w, tp, experiments.Table1(tp))
	fmt.Fprintf(w, "leaves: %d   slimmed: %v", tp.Leaves(), tp.IsSlimmed())
	if k, ok := tp.IsKaryNTree(); ok {
		fmt.Fprintf(w, "   (%d-ary %d-tree)", k, tp.Height())
	}
	fmt.Fprintln(w)
	if *labels < 0 {
		return nil
	}
	if *labels > tp.Height() {
		return fmt.Errorf("level %d out of range [0,%d]", *labels, tp.Height())
	}
	fmt.Fprintf(w, "labels of level %d:\n", *labels)
	for idx := 0; idx < tp.NodesAt(*labels); idx++ {
		fmt.Fprintf(w, "  %4d  %s\n", idx, tp.FormatLabel(*labels, idx))
	}
	return nil
}

// routing holds the flags routes and point share: the tree, the scheme
// and the seed its randomness draws from.
type routing struct {
	spec, algo *string
	seed       *uint64
}

func routingFlags(fs *flag.FlagSet) routing {
	return routing{
		spec: fs.String("xgft", "2;16,16;1,16", `topology as "h;m1,..;w1,.."`),
		algo: fs.String("algo", "d-mod-k", "routing scheme: "+strings.Join(core.AlgorithmNames(), ", ")),
		seed: fs.Uint64("seed", 1, "seed for randomized schemes, patterns and placements"),
	}
}

// build parses the tree, resolves traffic on it through the sweep
// grid's traffic table and builds the scheme for that traffic.
func (r routing) build(traffic string, bytes int64) (*xgft.Topology, core.Algorithm, []*pattern.Pattern, error) {
	tp, err := xgft.Parse(*r.spec)
	if err != nil {
		return nil, nil, nil, err
	}
	phases, err := experiments.Traffic(traffic, tp.Leaves(), bytes, *r.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	algo, err := core.NewByName(*r.algo, tp, *r.seed, phases)
	return tp, algo, phases, err
}

// routes computes the static routing table a subnet manager would
// install for a pattern under one of the paper's schemes, and the
// contention census of the result.
//
//	experiments routes -xgft "2;16,16;1,10" -algo d-mod-k -pattern cg-transpose
//	experiments routes -xgft "2;16,16;1,16" -algo r-NCA-u -seed 7 -pattern wrf -routes
//	experiments routes -xgft "2;16,16;1,16" -algo colored -pattern shift:37
func routes(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments routes", flag.ExitOnError)
	r := routingFlags(fs)
	traffic := fs.String("pattern", "wrf", "pattern: "+experiments.TrafficNames)
	bytes := fs.Int64("bytes", 64*1024, "bytes per flow")
	dump := fs.Bool("routes", false, "dump every route")
	tableFile := fs.String("dump-table", "", "write the routing table (LFT-style text) to this file")
	fs.Parse(args)

	tp, algo, phases, err := r.build(*traffic, *bytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "topology %s, algorithm %s\n", tp, algo.Name())
	if *tableFile != "" {
		var pairs [][2]int
		for _, p := range phases {
			for _, f := range p.Flows {
				pairs = append(pairs, [2]int{f.Src, f.Dst})
			}
		}
		snap, err := core.Snapshot(tp, algo, pairs)
		if err != nil {
			return err
		}
		out, err := os.Create(*tableFile)
		if err != nil {
			return err
		}
		_, err = snap.WriteTo(out)
		if err = errors.Join(err, out.Close()); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d routes to %s\n", snap.Len(), *tableFile)
	}
	for pi, p := range phases {
		tbl, err := core.BuildTable(tp, algo, p)
		if err != nil {
			return err
		}
		a, err := contention.Analyze(tp, p, tbl.Routes)
		if err != nil {
			return err
		}
		slow := contention.Ratio(a.CompletionBound(), a.CrossbarBound())
		fmt.Fprintf(w, "phase %d: %d flows, endpoint contention %d, network contention %d, max flows/channel %d, analytic slowdown %.2f\n",
			pi+1, len(p.Flows), a.MaxEndpointContention(), a.MaxNetworkContention(), a.MaxFlowsPerChannel(), slow)
		if !*dump {
			continue
		}
		for _, rt := range tbl.Routes {
			if rt.Src == rt.Dst {
				continue
			}
			level, nca := rt.NCA(tp)
			fmt.Fprintf(w, "  %4d -> %-4d via NCA level %d #%d  up%v\n", rt.Src, rt.Dst, level, nca, rt.Up)
		}
	}
	return nil
}

// point runs one evaluation, an application scored over an XGFT under
// a routing scheme, and reports the slowdown against the ideal full
// crossbar: one data point of the paper's Figs. 2/5. -engine
// "simulated" (the default) replays the full MPI trace through the
// Dimemas-style engine coupled to the venus network model, rank
// placement (-mapping) included; an evaluator backend (analytic,
// grouped, venus) scores the application's phases directly.
//
//	experiments point -xgft "2;16,16;1,10" -algo r-NCA-u -app cg -bytes 65536
//	experiments point -xgft "2;16,16;1,16" -algo random -app wrf -seed 3
//	experiments point -xgft "2;16,16;1,8" -algo d-mod-k -app cg -engine analytic
//	experiments point -xgft "2;16,8;1,4" -algo r-NCA-u -app cg -engine venus -bytes 2048
func point(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments point", flag.ExitOnError)
	r := routingFlags(fs)
	appName := fs.String("app", "cg", "application: wrf or cg")
	bytes := fs.Int64("bytes", 0, "message size override (0 = paper sizes)")
	engine := fs.String("engine", "simulated", "simulated (trace replay) or an evaluator backend: "+strings.Join(evaluate.Names(), ", "))
	mapping := fs.String("mapping", "linear", "rank placement: linear, round-robin, random or an explicit leaves:0,17,... allocation (simulated engine only)")
	cut := fs.Bool("cut-through", false, "virtual cut-through instead of store-and-forward")
	fs.Parse(args)

	app, err := experiments.AppByName(*appName)
	if err != nil {
		return err
	}
	tp, algo, phases, err := r.build(*appName, *bytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "application %s on %s under %s\n", app.Name, tp, algo.Name())

	netCfg := venus.DefaultConfig()
	netCfg.CutThrough = *cut
	start := time.Now()
	if *engine != "simulated" {
		ev, err := evaluate.New(*engine, evaluate.Options{Venus: netCfg})
		if err != nil {
			return err
		}
		res, err := ev.Score(tp, algo, phases)
		if err != nil {
			return err
		}
		for i, s := range res.PerPhase {
			fmt.Fprintf(w, "  phase %d: %.3f\n", i, s)
		}
		fmt.Fprintf(w, "%s slowdown vs full crossbar: %.3f   (wall time %.2fs)\n",
			ev.Name(), res.Slowdown, time.Since(start).Seconds())
		if res.Cost.SimEvents > 0 {
			fmt.Fprintf(w, "simulated %d events\n", res.Cost.SimEvents)
		}
		return nil
	}

	tr, err := traces.FromPhases(app.Ranks, phases, 1, 0)
	if err != nil {
		return err
	}
	m, err := dimemas.MappingByName(*mapping, tp, app.Ranks, int64(*r.seed))
	if err != nil {
		return err
	}
	cfg := dimemas.Config{Net: netCfg, Mapping: m}
	net, err := dimemas.Replay(tr, tp, algo, cfg)
	if err != nil {
		return err
	}
	ref, err := dimemas.ReplayOnCrossbar(tr, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "network time:  %12d ns\n", net)
	fmt.Fprintf(w, "crossbar time: %12d ns\n", ref)
	fmt.Fprintf(w, "measured slowdown: %.3f   (wall time %.2fs)\n",
		float64(net)/float64(ref), time.Since(start).Seconds())
	return nil
}
