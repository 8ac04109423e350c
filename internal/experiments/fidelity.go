package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/hashutil"
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

// FidelitySweep scores every (schedule, scheme) cell under both the
// analytic bound and the venus flit-level simulation on the paper's
// cost-reduced tree XGFT(2;16,16;1,10) and reports rank agreement and
// relative error per schedule. Options.MessageBytes defaults to 16
// KiB here (simulation time scales with segment count). The Simulated
// trace-replay engine is rejected: the sweep manages its own pair of
// backends.
func FidelitySweep(opt Options) ([]FidelityRow, error) {
	return single(opt, (*Batch).FidelitySweep)
}

// FidelitySweep declares the fidelity cells: one per (schedule,
// scheme, backend). Each schedule is drawn as a pure function of its
// key; the randomized schemes run at seed 1, Colored at the seed 0 the
// figures build it with.
func (b *Batch) FidelitySweep() (func() []FidelityRow, error) {
	opt := b.opt
	if opt.MessageBytes <= 0 {
		opt.MessageBytes = 16 * 1024
	}
	opt = opt.withDefaults()
	if opt.Engine != Analytic {
		return nil, fmt.Errorf("experiments: the fidelity sweep supports only the analytic engine, not %q", opt.Engine)
	}
	spec := slimmed(10)
	schedules := []workload{
		{"permutation", opt.MessageBytes, hashutil.Mix(fidelitySeed, 1)},
		{"uniform", opt.MessageBytes, hashutil.Mix(fidelitySeed, 2)},
		{"bit-reversal", opt.MessageBytes, 0},
	}
	ids := make([][][2]int, len(schedules)) // ids[i][k]: schedule i, scheme k, [analytic, venus]
	for i, wl := range schedules {
		for _, name := range fidelitySchemes {
			k := cellKey{topo: spec, wl: wl, scheme: name, seed: 1}
			if name == "colored" {
				k.seed = 0
			}
			k.measure = measureAnalytic
			a := b.add(k)
			k.measure = measureVenus
			ids[i] = append(ids[i], [2]int{a, b.add(k)})
		}
	}
	return func() []FidelityRow {
		rows := make([]FidelityRow, len(schedules))
		for i := range rows {
			row := FidelityRow{Schedule: schedules[i].name}
			val := func(k, backend int) float64 { return b.value(ids[i][k][backend])[0] }
			bestA, bestV := 0, 0
			for k, name := range fidelitySchemes {
				a, v := val(k, 0), val(k, 1)
				cell := FidelityCell{Scheme: name, Analytic: a, Venus: v}
				if v > 0 {
					cell.RelErr = math.Abs(v-a) / v
				}
				row.Cells = append(row.Cells, cell)
				if a < val(bestA, 0) {
					bestA = k
				}
				if v < val(bestV, 1) {
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
		return rows
	}, nil
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
