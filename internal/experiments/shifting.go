package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/xgft"
)

// The shifting-traffic sweep: the paper's evaluation shows no single
// oblivious table winning across patterns — the best choice is
// pattern-dependent (Figures 2-5). This sweep runs a *schedule* of
// traffic phases (random permutation → uniform random → bit-reversal
// → a fresh permutation) against two fabrics: a static one serving
// d-mod-k forever, and an online one whose telemetry-driven optimizer
// (fabric.Optimize) re-fits the table to each observed phase. The
// online fabric must match or beat the static one on every phase —
// the operational payoff of the paper's pattern-awareness argument.

// shiftPhase is one entry of the traffic schedule. Patterns are pure
// functions of (n, bytes, seed): the engine's coordinate-derived-
// randomness rule, so parallel runs are byte-identical.
type shiftPhase struct {
	Name    string
	pattern func(n int, bytes int64, seed uint64) (*pattern.Pattern, error)
}

// shiftSeed domain-separates the schedule's random draws.
const shiftSeed = 0x5f1f7

var shiftSchedule = []shiftPhase{
	{"permutation", func(n int, bytes int64, seed uint64) (*pattern.Pattern, error) {
		return pattern.KeyedRandomPermutation(n, bytes, hashutil.Mix(shiftSeed, seed, 1)), nil
	}},
	{"uniform", func(n int, bytes int64, seed uint64) (*pattern.Pattern, error) {
		return pattern.UniformRandom(n, 1, bytes, hashutil.Mix(shiftSeed, seed, 2)), nil
	}},
	{"bit-reversal", func(n int, bytes int64, seed uint64) (*pattern.Pattern, error) {
		return pattern.BitReversal(n, bytes)
	}},
	{"permutation-2", func(n int, bytes int64, seed uint64) (*pattern.Pattern, error) {
		return pattern.KeyedRandomPermutation(n, bytes, hashutil.Mix(shiftSeed, seed, 4)), nil
	}},
}

// ShiftRow is one phase of the shifting-traffic schedule, aggregated
// over seeds.
type ShiftRow struct {
	Phase string
	// Static is the distribution of d-mod-k's analytic slowdown on
	// the phase pattern; Online the re-optimized fabric's, measured
	// after its optimizer pass over the observed traffic.
	Static stats.Summary
	Online stats.Summary
	// Swaps counts the seeds whose optimizer installed a new table
	// during this phase; Chosen histograms the serving scheme after
	// the phase across seeds.
	Swaps  int
	Chosen map[string]int
}

// ShiftSweep runs the shifting-pattern schedule, one independent cell
// per seed on the parallel engine: it draws its own phase patterns,
// drives them through a telemetry-enabled fabric (initially d-mod-k),
// lets the optimizer re-fit after each phase, and measures both
// fabrics on the phase pattern. Its claim: the online fabric matches
// or beats static d-mod-k on every phase, and beats it on some —
// TestShiftSweepOnlineNeverWorseThanStatic. Results are byte-identical
// for any Parallelism. Options.Seeds defaults to 10 here; the sweep is
// analytic-only.
func ShiftSweep(opt Options) ([]ShiftRow, error) {
	opt, tp, err := tenantSweep(opt, 10)
	if err != nil {
		return nil, err
	}
	eval := evaluate.NewAnalytic(opt.Cache)
	type step struct {
		static, online float64
		swapped        bool
		chosen         string
	}
	steps := make([][]step, opt.Seeds) // [seed][phase]
	err = opt.run(opt.Seeds, func(s int) error {
		f, err := dmodkFabric(tp, opt.Cache, eval)
		if err != nil {
			return err
		}
		for _, ph := range shiftSchedule {
			p, err := ph.pattern(tp.Leaves(), opt.MessageBytes, uint64(s)+1)
			if err != nil {
				return err
			}
			// Phase traffic: one resolve per flow feeds the counters.
			for _, fl := range p.Flows {
				if _, ok := f.Resolve(fl.Src, fl.Dst); !ok {
					return fmt.Errorf("experiments: shift seed %d phase %s: pair (%d,%d) did not resolve", s, ph.Name, fl.Src, fl.Dst)
				}
			}
			// Re-fit to the observed window. Threshold 0: any strict
			// improvement swaps, so the online fabric never serves a
			// table worse than the best candidate — which includes
			// static d-mod-k itself.
			res, err := f.Optimize(fabric.OptimizeConfig{Threshold: 0, Reset: true})
			if err != nil {
				return err
			}
			// Static baseline on the phase pattern.
			st, err := eval.Score(tp, core.NewDModK(tp), []*pattern.Pattern{p})
			if err != nil {
				return err
			}
			// Online fabric measured on the same pattern. Resolution
			// goes through the pinned generation so measurement
			// traffic does not leak into the next phase's telemetry.
			gen := f.Generation()
			routes := make([]xgft.Route, len(p.Flows))
			for i, fl := range p.Flows {
				r, ok := gen.Resolve(fl.Src, fl.Dst)
				if !ok {
					return fmt.Errorf("experiments: shift seed %d phase %s: optimized fabric lost pair (%d,%d)", s, ph.Name, fl.Src, fl.Dst)
				}
				routes[i] = r
			}
			on, err := eval.ScoreRoutes(tp, p, routes)
			if err != nil {
				return err
			}
			steps[s] = append(steps[s], step{st.Slowdown, on.Slowdown, res.Swapped, f.Stats().Algo})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ShiftRow, len(shiftSchedule))
	for pi := range rows {
		var static, online []float64
		row := ShiftRow{Phase: shiftSchedule[pi].Name, Chosen: make(map[string]int)}
		for _, seed := range steps {
			st := seed[pi]
			static, online = append(static, st.static), append(online, st.online)
			if st.swapped {
				row.Swaps++
			}
			row.Chosen[st.chosen]++
		}
		row.Static, row.Online = stats.Summarize(static), stats.Summarize(online)
		rows[pi] = row
	}
	return rows, nil
}

// WriteShiftSweep renders the shifting-traffic sweep.
func WriteShiftSweep(w io.Writer, rows []ShiftRow) {
	fmt.Fprintln(w, "Shifting traffic — XGFT(2;16,16;1,10), static d-mod-k vs telemetry-driven re-optimization")
	fmt.Fprintf(w, "%-14s %-24s %-24s %6s  %s\n", "phase", "static d-mod-k [med]", "online re-opt [med]", "swaps", "serving tables")
	for _, r := range rows {
		cell := func(s stats.Summary) string {
			return fmt.Sprintf("med=%-5.2f (%.2f-%.2f)", s.Median, s.Min, s.Max)
		}
		names := make([]string, 0, len(r.Chosen))
		for name := range r.Chosen {
			names = append(names, name)
		}
		sort.Strings(names)
		serving := ""
		for i, name := range names {
			if i > 0 {
				serving += " "
			}
			serving += fmt.Sprintf("%s×%d", name, r.Chosen[name])
		}
		fmt.Fprintf(w, "%-14s %-24s %-24s %3d/%-2d  %s\n",
			r.Phase, cell(r.Static), cell(r.Online), r.Swaps, r.Static.N, serving)
	}
}
