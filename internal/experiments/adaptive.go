package experiments

import (
	"fmt"
	"io"

	"repro/internal/venus"
)

// AdaptiveRow compares per-segment adaptive routing against the
// oblivious schemes on one workload/topology point (simulated
// engine; adaptivity has no analytic counterpart).
type AdaptiveRow struct {
	Workload string
	W2       int
	Adaptive float64
	DModK    float64
	RNCADn   float64
	Random   float64
}

// AdaptiveComparison reproduces the §I observation the paper cites
// (Gomez et al.): local adaptive decisions beat bad oblivious
// assignments on adversarial regular patterns, but do not beat a good
// oblivious scheme on patterns it routes conflict-free.
// TestAdaptiveComparisonShapes asserts both halves.
// Options.MessageBytes (default 32 KiB) sets the per-flow size;
// Parallelism and Progress apply to the sweep's cells.
func AdaptiveComparison(opt Options) ([]AdaptiveRow, error) {
	return single(opt, (*Batch).AdaptiveComparison)
}

// AdaptiveComparison declares the comparison's cells: per (workload,
// w2) point one adaptive cell and three oblivious venus cells, the
// randomized schemes at seed 1.
func (b *Batch) AdaptiveComparison() (func() []AdaptiveRow, error) {
	bytes := b.opt.MessageBytes
	if bytes <= 0 {
		bytes = 32 * 1024
	}
	workloads := []struct {
		label string
		wl    workload
	}{
		{"wrf-halo", workload{name: "WRF-256", bytes: bytes}},
		{"cg-transpose", workload{name: "cg-transpose", bytes: bytes}},
	}
	var rows []AdaptiveRow
	var ids [][4]int
	for _, w := range workloads {
		for _, w2 := range []int{16, 8} {
			k := cellKey{topo: slimmed(w2), wl: w.wl, scheme: venus.AdaptiveAlgorithmName, measure: measureAdaptive}
			cells := [4]int{b.add(k)}
			k.measure = measureVenus
			cells[1] = b.add(k.of("d-mod-k"))
			k.seed = 1
			cells[2], cells[3] = b.add(k.of("r-NCA-d")), b.add(k.of("random"))
			rows = append(rows, AdaptiveRow{Workload: w.label, W2: w2})
			ids = append(ids, cells)
		}
	}
	return func() []AdaptiveRow {
		for i, r := range ids {
			rows[i].Adaptive, rows[i].DModK, rows[i].RNCADn, rows[i].Random = b.value(r[0])[0], b.value(r[1])[0], b.value(r[2])[0], b.value(r[3])[0]
		}
		return rows
	}, nil
}

// WriteAdaptiveComparison renders the comparison.
func WriteAdaptiveComparison(w io.Writer, rows []AdaptiveRow) {
	fmt.Fprintln(w, "Extension — per-segment adaptive routing vs oblivious (simulated slowdowns)")
	fmt.Fprintf(w, "%-14s %4s  %9s  %8s  %8s  %8s\n", "workload", "w2", "adaptive", "d-mod-k", "r-NCA-d", "random")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %4d  %9.2f  %8.2f  %8.2f  %8.2f\n",
			r.Workload, r.W2, r.Adaptive, r.DModK, r.RNCADn, r.Random)
	}
}
