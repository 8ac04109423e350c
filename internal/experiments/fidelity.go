package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// The analytic-vs-simulation fidelity sweep: everything this system
// steers by — the fabric optimizer, the telemetry placement policy,
// every analytic sweep — trusts the congestion completion bound to
// rank routing schemes the way a real network would. This sweep is
// the first quantitative check of that trust: the same (scheme,
// phase schedule) cells are scored by the analytic backend and by the
// venus flit-level simulation, and the sweep reports whether the two
// backends agree on the winning scheme (rank agreement) and how far
// the bound sits from the measured makespan (relative error). §VI-B
// of the paper performs exactly this calibration between its
// combinatorial analysis and the Venus/Dimemas toolchain.

// fidelitySeed domain-separates the sweep's random draws.
const fidelitySeed = 0xf1de1

// fidelitySchemes enumerates the compared schemes in result order:
// the classic deterministic baseline, the paper's two proposals, and
// the pattern-aware Colored bound. Colored is built per schedule from
// its phases.
var fidelitySchemes = []string{"d-mod-k", "r-NCA-u", "r-NCA-d", "colored"}

// fidelitySchedule is one column of the sweep: a named traffic
// schedule drawn as a pure function of its coordinates.
type fidelitySchedule struct {
	Name    string
	pattern func(n int, bytes int64) (*pattern.Pattern, error)
}

var fidelitySchedules = []fidelitySchedule{
	{"permutation", func(n int, bytes int64) (*pattern.Pattern, error) {
		return pattern.KeyedRandomPermutation(n, bytes, hashutil.Mix(fidelitySeed, 1)), nil
	}},
	{"uniform", func(n int, bytes int64) (*pattern.Pattern, error) {
		return pattern.UniformRandom(n, 1, bytes, hashutil.Mix(fidelitySeed, 2)), nil
	}},
	{"bit-reversal", func(n int, bytes int64) (*pattern.Pattern, error) {
		return pattern.BitReversal(n, bytes)
	}},
}

// FidelityCell is one (schedule, scheme) comparison.
type FidelityCell struct {
	Scheme   string
	Analytic float64
	Venus    float64
	// RelErr is |venus - analytic| / venus: how far the bound sits
	// from the measured makespan slowdown.
	RelErr float64
}

// FidelityRow is one traffic schedule's comparison across schemes.
type FidelityRow struct {
	Schedule string
	Cells    []FidelityCell
	// BestAnalytic / BestVenus name the scheme each backend ranks
	// first (ties break on scheme order); Agree reports whether the
	// cheap bound picked the same winner the simulation did.
	BestAnalytic string
	BestVenus    string
	Agree        bool
	// MaxRelErr is the largest relative error over the schemes.
	MaxRelErr float64
}

// fidelityAlgo builds scheme k for the schedule's phases.
func fidelityAlgo(k int, tp *xgft.Topology, phases []*pattern.Pattern) (core.Algorithm, error) {
	switch fidelitySchemes[k] {
	case "d-mod-k":
		return core.NewDModK(tp), nil
	case "r-NCA-u":
		return core.NewRandomNCAUp(tp, 1), nil
	case "r-NCA-d":
		return core.NewRandomNCADown(tp, 1), nil
	case "colored":
		return core.NewColored(tp, phases, core.ColoredConfig{}), nil
	default:
		return nil, fmt.Errorf("experiments: unknown fidelity scheme %q", fidelitySchemes[k])
	}
}

// FidelitySweep scores every (schedule, scheme) cell under both the
// analytic bound and the venus flit-level simulation on the paper's
// cost-reduced tree XGFT(2;16,16;1,10) and reports rank agreement and
// relative error per schedule. Options.MessageBytes defaults to 16
// KiB here (simulation time scales with segment count); cells are
// independent on the parallel engine and every input is a pure
// function of the cell coordinates, so the table is byte-identical
// for any Parallelism. The Simulated trace-replay engine is rejected:
// the sweep manages its own pair of backends.
func FidelitySweep(opt Options) ([]FidelityRow, error) {
	if opt.MessageBytes <= 0 {
		opt.MessageBytes = 16 * 1024
	}
	opt = opt.withDefaults()
	if opt.Engine != Analytic {
		return nil, fmt.Errorf("experiments: the fidelity sweep supports only the analytic engine, not %q", opt.Engine)
	}
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		return nil, err
	}
	analytic := evaluate.NewAnalytic(opt.Cache)
	// One venus backend for the whole sweep: its crossbar-reference
	// memo is shared across schemes (deterministic values, so sharing
	// cannot perturb results).
	sim := evaluate.NewVenus(opt.Cache, venus.Config{})
	backends := []evaluate.Evaluator{analytic, sim}

	nSched, nSchemes, nBackends := len(fidelitySchedules), len(fidelitySchemes), len(backends)
	// Schedules are drawn up-front, sequentially; cells only read.
	phases := make([][]*pattern.Pattern, nSched)
	for i, sc := range fidelitySchedules {
		p, err := sc.pattern(tp.Leaves(), opt.MessageBytes)
		if err != nil {
			return nil, err
		}
		phases[i] = []*pattern.Pattern{p}
	}
	// values[i][k][b]: schedule i, scheme k, backend b.
	values := make([][][]float64, nSched)
	for i := range values {
		values[i] = make([][]float64, nSchemes)
		for k := range values[i] {
			values[i][k] = make([]float64, nBackends)
		}
	}
	cellsPerSched := nSchemes * nBackends
	err = opt.run(nSched*cellsPerSched, func(idx int) error {
		i, c := idx/cellsPerSched, idx%cellsPerSched
		k, b := c/nBackends, c%nBackends
		algo, err := fidelityAlgo(k, tp, phases[i])
		if err != nil {
			return err
		}
		res, err := backends[b].Score(tp, algo, phases[i])
		if err != nil {
			return err
		}
		values[i][k][b] = res.Slowdown
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]FidelityRow, nSched)
	for i := range rows {
		row := FidelityRow{Schedule: fidelitySchedules[i].Name}
		bestA, bestV := 0, 0
		for k := 0; k < nSchemes; k++ {
			a, v := values[i][k][0], values[i][k][1]
			cell := FidelityCell{Scheme: fidelitySchemes[k], Analytic: a, Venus: v}
			if v > 0 {
				cell.RelErr = math.Abs(v-a) / v
			}
			row.Cells = append(row.Cells, cell)
			if a < values[i][bestA][0] {
				bestA = k
			}
			if v < values[i][bestV][1] {
				bestV = k
			}
			if cell.RelErr > row.MaxRelErr {
				row.MaxRelErr = cell.RelErr
			}
		}
		row.BestAnalytic = fidelitySchemes[bestA]
		row.BestVenus = fidelitySchemes[bestV]
		row.Agree = bestA == bestV
		rows[i] = row
	}
	return rows, nil
}

// WriteFidelitySweep renders the fidelity sweep.
func WriteFidelitySweep(w io.Writer, rows []FidelityRow) {
	fmt.Fprintln(w, "Fidelity — analytic bound vs venus simulation, XGFT(2;16,16;1,10)")
	fmt.Fprintf(w, "%-14s", "schedule")
	for _, s := range fidelitySchemes {
		fmt.Fprintf(w, " %-19s", s+" (bound/sim)")
	}
	fmt.Fprintf(w, " %-22s %7s\n", "best (bound vs sim)", "maxerr")
	agreed := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s", r.Schedule)
		for _, c := range r.Cells {
			fmt.Fprintf(w, " %8.2f /%8.2f ", c.Analytic, c.Venus)
		}
		verdict := "AGREE"
		if !r.Agree {
			verdict = "DISAGREE"
		} else {
			agreed++
		}
		fmt.Fprintf(w, " %-8s vs %-8s %s %5.1f%%\n", r.BestAnalytic, r.BestVenus, verdict, r.MaxRelErr*100)
	}
	fmt.Fprintf(w, "rank agreement: %d/%d schedules\n", agreed, len(rows))
}
