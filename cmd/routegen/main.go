// Command routegen computes static routing tables: the routes a
// subnet manager would install for a pattern on an XGFT under one of
// the paper's routing schemes, plus the contention census of the
// result.
//
// Usage:
//
//	routegen -xgft "2;16,16;1,10" -algo d-mod-k -pattern cg-transpose
//	routegen -xgft "2;16,16;1,16" -algo r-NCA-u -seed 7 -pattern wrf -routes
//	routegen -xgft "2;16,16;1,16" -algo colored -pattern shift:37
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

func main() {
	var (
		spec    = flag.String("xgft", "2;16,16;1,16", `topology as "h;m1,..;w1,.."`)
		algo    = flag.String("algo", "d-mod-k", "routing scheme: "+strings.Join(core.AlgorithmNames(), ", "))
		patName = flag.String("pattern", "wrf", "pattern: wrf, cg, cg-transpose, shift:K, transpose, bitrev, tornado, alltoall, random-perm")
		seed    = flag.Uint64("seed", 1, "seed for randomized schemes and patterns")
		bytes   = flag.Int64("bytes", 64*1024, "bytes per flow")
		dump    = flag.Bool("routes", false, "dump every route")
		table   = flag.String("dump-table", "", "write the routing table (LFT-style text) to this file")
	)
	flag.Parse()

	if err := run(*spec, *algo, *patName, *seed, *bytes, *dump, *table); err != nil {
		fmt.Fprintln(os.Stderr, "routegen:", err)
		os.Exit(2)
	}
}

func run(spec, algoName, patName string, seed uint64, bytes int64, dump bool, tableFile string) error {
	tp, err := xgft.Parse(spec)
	if err != nil {
		return err
	}
	phases, err := buildPattern(patName, tp.Leaves(), bytes, seed)
	if err != nil {
		return err
	}
	algorithm, err := core.NewByName(algoName, tp, seed, phases)
	if err != nil {
		return err
	}
	fmt.Printf("topology %s, algorithm %s\n", tp, algorithm.Name())
	if tableFile != "" {
		var pairs [][2]int
		for _, p := range phases {
			for _, f := range p.Flows {
				pairs = append(pairs, [2]int{f.Src, f.Dst})
			}
		}
		snap, err := core.Snapshot(tp, algorithm, pairs)
		if err != nil {
			return err
		}
		out, err := os.Create(tableFile)
		if err != nil {
			return err
		}
		defer out.Close()
		if _, err := snap.WriteTo(out); err != nil {
			return err
		}
		fmt.Printf("wrote %d routes to %s\n", snap.Len(), tableFile)
	}
	for pi, p := range phases {
		tbl, err := core.BuildTable(tp, algorithm, p)
		if err != nil {
			return err
		}
		a, err := contention.Analyze(tp, p, tbl.Routes)
		if err != nil {
			return err
		}
		slow := contention.Ratio(a.CompletionBound(), a.CrossbarBound())
		fmt.Printf("phase %d: %d flows, endpoint contention %d, network contention %d, max flows/channel %d, analytic slowdown %.2f\n",
			pi+1, len(p.Flows), a.MaxEndpointContention(), a.MaxNetworkContention(), a.MaxFlowsPerChannel(), slow)
		if dump {
			for _, r := range tbl.Routes {
				if r.Src == r.Dst {
					continue
				}
				level, nca := r.NCA(tp)
				fmt.Printf("  %4d -> %-4d via NCA level %d #%d  up%v\n", r.Src, r.Dst, level, nca, r.Up)
			}
		}
	}
	return nil
}

// buildPattern resolves the pattern selector. Multi-phase names (cg)
// return several phases; everything else one. Randomized patterns
// come from the keyed splitmix64 stream, so the same -seed prints the
// same table on every platform and Go version.
func buildPattern(name string, n int, bytes int64, seed uint64) ([]*pattern.Pattern, error) {
	switch {
	case name == "wrf":
		if n < 256 {
			return nil, fmt.Errorf("wrf needs >= 256 leaves, topology has %d", n)
		}
		return []*pattern.Pattern{pattern.WRF256()}, nil
	case name == "cg":
		if n < 128 {
			return nil, fmt.Errorf("cg needs >= 128 leaves, topology has %d", n)
		}
		phases, err := pattern.CGPhases(128, bytes)
		if err != nil {
			return nil, err
		}
		for _, ph := range phases {
			ph.N = n
		}
		return phases, nil
	case name == "cg-transpose":
		if n < 128 {
			return nil, fmt.Errorf("cg-transpose needs >= 128 leaves, topology has %d", n)
		}
		ph, err := pattern.CGTransposePhase(128, bytes)
		if err != nil {
			return nil, err
		}
		ph.N = n
		return []*pattern.Pattern{ph}, nil
	case strings.HasPrefix(name, "shift:"):
		k, err := strconv.Atoi(strings.TrimPrefix(name, "shift:"))
		if err != nil {
			return nil, fmt.Errorf("bad shift distance: %v", err)
		}
		return []*pattern.Pattern{pattern.Shift(n, k, bytes)}, nil
	case name == "transpose":
		side := 1
		for side*side < n {
			side++
		}
		if side*side != n {
			return nil, fmt.Errorf("transpose needs a square node count, got %d", n)
		}
		return []*pattern.Pattern{pattern.Transpose(side, side, bytes)}, nil
	case name == "bitrev":
		p, err := pattern.BitReversal(n, bytes)
		if err != nil {
			return nil, err
		}
		return []*pattern.Pattern{p}, nil
	case name == "tornado":
		return []*pattern.Pattern{pattern.Tornado(n, bytes)}, nil
	case name == "alltoall":
		return []*pattern.Pattern{pattern.AllToAll(n, bytes)}, nil
	case name == "random-perm":
		return []*pattern.Pattern{pattern.KeyedRandomPermutation(n, bytes, seed)}, nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", name)
	}
}
