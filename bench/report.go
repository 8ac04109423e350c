package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

// Report is the document one perfreport run writes to report.json.
type Report struct {
	Commit string `json:"commit"`
	Date   string `json:"date"`
	// Sets holds one set, or two for an A/A run.
	Sets []*Set `json:"sets"`
	// AA lists, for an A/A run, every gated metric whose two sets
	// differ by more than its bound, and any decision or output hash
	// that differs.
	AA []string `json:"aa_disagreements,omitempty"`
}

// NewReport stamps the sets with the checkout's commit and the date.
func NewReport(root string, sets []*Set) *Report {
	return &Report{Commit: gitCommit(root), Date: time.Now().UTC().Format(time.RFC3339), Sets: sets}
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Correct reports whether every set verified and, for an A/A run, the
// sets agreed.
func (r *Report) Correct() bool {
	for _, s := range r.Sets {
		if !s.Correct() {
			return false
		}
	}
	return len(r.AA) == 0
}

// contendedSteal is the share of CPU time withheld by the hypervisor
// above which a set's timings say more about the box's neighbours than
// about the code: quiet sets on the 2-vCPU box read 0.0005-0.003,
// contended ones 0.15-0.27 with every timing 1.5-3x worse.
const contendedSteal = 0.02

// formatValue renders a reading with enough digits for its size.
func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1e6:
		return fmt.Sprintf("%.4g", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// tailOf returns the quantile a tail-latency metric reports, so the
// report can say how many samples lie beyond it.
func tailOf(name string) (float64, bool) {
	switch {
	case strings.Contains(name, "_p999_"):
		return 0.999, true
	case strings.Contains(name, "_p99_"):
		return 0.99, true
	case strings.Contains(name, "_p90_"):
		return 0.9, true
	}
	return 0, false
}

// Print writes every metric of every workload by name, with its unit
// and sample count: the end-to-end table first, then the layers.
func (s *Set) Print(w io.Writer) {
	fmt.Fprintf(w, "perfreport: seed %d, %g s per workload, %d CPUs (%s), calibration %.0f ns, steal %.4f\n",
		s.Seed, s.Seconds, s.Machine.NProc, s.Machine.CPUModel, s.Machine.CalibrationNS, s.Machine.StealRatio)
	if s.Machine.StealRatio > contendedSteal {
		fmt.Fprintf(w, "WARNING: the hypervisor withheld %.1f %% of the CPU time during this set (machine.steal_ratio); its timings are not comparable with a quiet run's\n", 100*s.Machine.StealRatio)
	}
	for _, wl := range s.Workloads {
		fmt.Fprintf(w, "\n== %s: %d rounds, %d operations, %d failed, correct=%v\n", wl.Name, wl.Rounds, wl.Attempted, wl.Failed, wl.Correct)
		section := ""
		for _, m := range Catalog {
			if !m.AppliesTo(wl.Name) {
				continue
			}
			v := wl.Metrics[m.Name]
			if m.Bound == 0 && m.Name != "failed_ops_ratio" && !s.Traced && v.Value == 0 {
				continue // layer metrics are measured by the traced round only
			}
			sec := "end to end"
			if i := strings.IndexByte(m.Name, '.'); i > 0 {
				sec = m.Name[:i]
			}
			if sec != section {
				section = sec
				fmt.Fprintf(w, "  -- %s\n", sec)
			}
			line := fmt.Sprintf("  %-36s %12s %-6s", m.Name, formatValue(v.Value), v.Unit)
			if v.N > 0 {
				line += fmt.Sprintf(" n=%d", v.N)
				if p, ok := tailOf(m.Name); ok {
					line += fmt.Sprintf(" beyond=%d", Beyond(v.N, p))
				}
			}
			if m.GatedOn(wl.Name) {
				line += fmt.Sprintf(" bound=%.2f", m.Bound)
			} else if spread, ok := m.Unheld[wl.Name]; ok {
				line += fmt.Sprintf(" bound=%.2f not held under -aa (%s)", m.Bound, spread)
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
		if wl.DecisionHash != "" {
			fmt.Fprintf(w, "  decision_hash %s over %d cycles\n", wl.DecisionHash, len(wl.DecisionChain))
		}
		if wl.OutputHash != "" {
			fmt.Fprintf(w, "  output_hash %s (matches bench/golden)\n", wl.OutputHash[:16])
		}
		for _, b := range wl.Budget {
			state := "budget closed"
			if !b.Closed {
				state = "budget NOT closed"
			}
			fmt.Fprintf(w, "  %s: %s\n", state, b.What)
		}
		for _, n := range wl.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
	}
}

// worsening returns by what share of a, in the metric's bad direction,
// b is worse than a (negative when b is better).
func worsening(m Metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// CompareAA lists every gated metric on which two sets of the same
// code differ, in either direction, by more than the metric's bound,
// every failed_ops_ratio that is not 0, and every decision chain or
// sweep output that differs. An empty list means the sets agree.
func CompareAA(a, b *Set) []string {
	var out []string
	for _, wa := range a.Workloads {
		wb := b.Workload(wa.Name)
		if wb == nil {
			out = append(out, fmt.Sprintf("%s: missing from the second set", wa.Name))
			continue
		}
		for _, m := range Catalog {
			if !m.GatedOn(wa.Name) {
				continue
			}
			va, vb := wa.Metrics[m.Name].Value, wb.Metrics[m.Name].Value
			d := math.Max(worsening(m, va, vb), worsening(m, vb, va))
			if d > m.Bound {
				out = append(out, fmt.Sprintf("%s %s: %s vs %s %s differ by %.1f %%, bound %.0f %%",
					wa.Name, m.Name, formatValue(va), formatValue(vb), m.Unit, 100*d, 100*m.Bound))
			}
		}
		n := min(len(wa.DecisionChain), len(wb.DecisionChain))
		if n > 0 && wa.DecisionChain[n-1] != wb.DecisionChain[n-1] {
			out = append(out, fmt.Sprintf("%s: decision chains differ within the first %d cycles", wa.Name, n))
		}
		if wa.OutputHash != wb.OutputHash {
			out = append(out, fmt.Sprintf("%s: sweep output hashes differ", wa.Name))
		}
	}
	return out
}

// LedgerLine is one line of bench/ledger.jsonl: where and when the
// set was measured, and every metric of every workload.
type LedgerLine struct {
	Commit    string                        `json:"commit"`
	Date      string                        `json:"date"`
	Seed      uint64                        `json:"seed"`
	Machine   Machine                       `json:"machine"`
	Correct   bool                          `json:"correct"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// AppendLedger appends the set as one JSON line to the ledger at path.
func AppendLedger(path string, r *Report, s *Set) error {
	line := LedgerLine{Commit: r.Commit, Date: r.Date, Seed: s.Seed, Machine: s.Machine, Correct: s.Correct(),
		Workloads: make(map[string]map[string]float64)}
	for _, wl := range s.Workloads {
		vals := make(map[string]float64)
		for _, m := range Catalog {
			if m.AppliesTo(wl.Name) {
				vals[m.Name] = wl.Metrics[m.Name].Value
			}
		}
		line.Workloads[wl.Name] = vals
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ContractLine is the one-line result the benchmark driver reads from
// the end of standard output: whether the outputs verified, how many
// operations were attempted and failed, and the metrics of the
// requested kind.
type ContractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]ContractValue `json:"metrics"`
}

// ContractValue is one metric of a ContractLine.
type ContractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Contract renders one workload's result as the driver's line: the
// universal end-to-end metrics for an untraced run, every other
// metric for a traced one.
func Contract(wl *WorkloadResult, traced bool) ContractLine {
	line := ContractLine{Correct: wl.Correct, Attempted: wl.Attempted, Failed: wl.Failed, Metrics: make(map[string]ContractValue)}
	for _, m := range Catalog {
		if m.Universal() == traced {
			continue
		}
		line.Metrics[m.Name] = ContractValue{Value: wl.Metrics[m.Name].Value, Unit: m.Unit}
	}
	return line
}
