package experiments

import (
	"fmt"
	"io"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/xgft"
)

// The degraded-topology sweep: a Figure-2-style study of how the
// paper's schemes hold up when the fabric does not. Top-level links
// of the full 16-ary 2-tree fail in increasing fractions; each
// scheme's healthy table is patched through the degraded view
// (core.PatchTable — the fabric manager's repair path) and the
// analytic slowdown of the patched routes is measured. Robustness
// under contaminated inputs is the cluster-analysis framing of
// Gallegos & Ritter applied to routing: how gracefully does each
// scheme's balance degrade as its assumptions break?

// faultFractions is the sweep's x-axis: the fraction of failed
// top-level links.
var faultFractions = []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}

// FaultRow is one x-position of the degraded-topology sweep.
type FaultRow struct {
	// Fraction of top-level links failed; FailedLinks is the count.
	Fraction    float64
	FailedLinks int
	// Per-scheme slowdown distributions over seeds. Each seed draws
	// its own failed-link set, so even the deterministic d-mod-k gets
	// a distribution.
	DModK  stats.Summary
	Random stats.Summary
	RNCAUp stats.Summary
	RNCADn stats.Summary
	// Unreachable is the mean fraction of flows with no surviving
	// minimal path (dropped from the slowdown; scheme-independent).
	Unreachable float64
}

// topWireOrder returns a keyed-hash permutation of the top-level wire
// IDs: seed s fails the first k wires of its permutation, so one
// seed's failure sets are nested across fractions (monotone
// degradation per seed) while different seeds draw independent sets.
// The shuffle itself is pattern.KeyedPerm under a domain-separated
// seed.
func topWireOrder(tp *xgft.Topology, seed uint64) []int {
	top := tp.Height() - 1
	base := tp.TotalChannels() - tp.ChannelsAt(top)
	perm := pattern.KeyedPerm(tp.ChannelsAt(top), hashutil.Mix(0xfab71c, seed))
	order := make([]int, len(perm))
	for i, p := range perm {
		order[i] = base + p
	}
	return order
}

// degradedSlowdown evaluates one (scheme, view) cell: healthy tables
// are built through c (nil: built and dropped), patched through the
// view, and the analytic bound of the surviving flows is normalized
// against the crossbar bound of the same (reduced) flow set.
// unreachFrac is the fraction of flows dropped as unreachable.
func degradedSlowdown(c *core.TableCache, tp *xgft.Topology, v *xgft.View, algo core.Algorithm, phases []*pattern.Pattern) (slow, unreachFrac float64, err error) {
	var network, crossbar int64
	flows, unreachable := 0, 0
	for _, p := range phases {
		tbl, err := c.Build(tp, algo, p)
		if err != nil {
			return 0, 0, err
		}
		patched, st, err := core.PatchTable(tbl, v)
		if err != nil {
			return 0, 0, err
		}
		flows += st.Examined
		unreachable += st.Unreachable
		q, routes := p, patched.Routes
		if st.Unreachable > 0 {
			q = pattern.New(p.N)
			routes = routes[:0:0]
			for i, f := range p.Flows {
				r := patched.Routes[i]
				if f.Src != f.Dst && r.Up == nil {
					continue // unreachable pair, dropped
				}
				q.Add(f.Src, f.Dst, f.Bytes)
				routes = append(routes, r)
			}
		}
		l, err := contention.ByteLoads(tp, q, routes)
		if err != nil {
			return 0, 0, err
		}
		network += l.CompletionBound()
		crossbar += l.CrossbarBound()
	}
	if flows > 0 {
		unreachFrac = float64(unreachable) / float64(flows)
	}
	return contention.Ratio(network, crossbar), unreachFrac, nil
}

// FaultSweep measures analytic slowdown against the fraction of
// failed top-level links on the full tree XGFT(2;16,16;1,16) for
// D-mod-k, Random and r-NCA-u/d. Options.Seeds defaults to 10 here.
// The sweep is analytic-only: patched tables bypass the trace-replay
// pipeline, so a Simulated engine is rejected rather than silently
// ignored.
func FaultSweep(app *App, opt Options) ([]FaultRow, error) {
	return single(opt, func(b *Batch) (func() []FaultRow, error) { return b.FaultSweep(app) })
}

// FaultSweep declares the degraded-topology cells: one per (fraction,
// scheme, seed). Seed s draws failure set s and seeds the randomized
// schemes; every cell builds its scheme's healthy table and patches
// it. A cache would share healthy tables across fractions (2 368 hits
// / 222 misses at -seeds 12), but patching and the census dominate and
// the measured CPU does not move, so there is none.
func (b *Batch) FaultSweep(app *App) (func() []FaultRow, error) {
	opt := b.opt
	if opt.Seeds <= 0 {
		opt.Seeds = 10
	}
	opt = opt.withDefaults()
	if opt.Engine != Analytic {
		return nil, fmt.Errorf("experiments: the degraded-topology sweep supports only the analytic engine, not %q", opt.Engine)
	}
	k, err := appCell(app, opt)
	if err != nil {
		return nil, err
	}
	k.topo, k.measure = slimmed(16), measureDegraded
	tp, err := b.topo(k.topo)
	if err != nil {
		return nil, err
	}
	topWires := tp.ChannelsAt(tp.Height() - 1)
	schemes := []string{"d-mod-k", "random", "r-NCA-u", "r-NCA-d"}
	counts := make([]int, len(faultFractions))
	ids := make([][][]int, len(faultFractions)) // ids[i][j][seed]: scheme j at fraction i
	for i, frac := range faultFractions {
		counts[i] = int(frac*float64(topWires) + 0.5)
		k.failed = counts[i]
		for _, name := range schemes {
			ids[i] = append(ids[i], b.seeds(k, name, opt.Seeds))
		}
	}
	return func() []FaultRow {
		rows := make([]FaultRow, len(faultFractions))
		for i := range rows {
			var u float64
			for _, cells := range ids[i] {
				u += stats.Summarize(b.column(cells, 1)).Mean
			}
			rows[i] = FaultRow{
				Fraction:    faultFractions[i],
				FailedLinks: counts[i],
				DModK:       b.summary(ids[i][0]),
				Random:      b.summary(ids[i][1]),
				RNCAUp:      b.summary(ids[i][2]),
				RNCADn:      b.summary(ids[i][3]),
				Unreachable: u / float64(len(schemes)),
			}
		}
		return rows
	}, nil
}

// WriteFaultSweep renders the degraded-topology sweep.
func WriteFaultSweep(w io.Writer, app *App, rows []FaultRow) {
	fmt.Fprintf(w, "Degraded topology — %s on XGFT(2;16,16;1,16), slowdown vs fraction of failed top-level links\n", app.Name)
	fmt.Fprintf(w, "%6s %6s  %-22s %-22s %-22s %-22s %9s\n",
		"failed", "links", "d-mod-k [med]", "random [med]", "r-NCA-u [med]", "r-NCA-d [med]", "unreach")
	for _, r := range rows {
		cell := func(s stats.Summary) string {
			return fmt.Sprintf("med=%-5.2f (%.2f-%.2f)", s.Median, s.Min, s.Max)
		}
		fmt.Fprintf(w, "%5.0f%% %6d  %-22s %-22s %-22s %-22s %8.2f%%\n",
			r.Fraction*100, r.FailedLinks,
			cell(r.DModK), cell(r.Random), cell(r.RNCAUp), cell(r.RNCADn),
			r.Unreachable*100)
	}
}
