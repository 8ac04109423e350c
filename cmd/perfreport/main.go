// Command perfreport is the repository's benchmark (package bench):
// it builds fabricd and experiments, drives the four workloads through
// them as real processes, verifies every output, and prints every
// end-to-end and per-layer metric by name with its unit.
//
// Usage:
//
//	perfreport -seed 1                      full set: 4 workloads x 30 s in 5 rounds + traced round,
//	                                        writes bench/out/report.json, appends bench/ledger.jsonl
//	perfreport -aa                          two sets interleaved; fails if they disagree
//	perfreport -smoke                       tiny end-to-end pass (what go test ./bench/... runs)
//	perfreport -workload churn_mixed        one workload alone
//	perfreport --workload resolve_bulk --seed 3 --seconds 25 --trace 0
//	                                        the benchmark driver's form (BENCHMARK.json): one
//	                                        workload, a fixed measured time, the result as one
//	                                        JSON object on the last line of standard output
//
// With --trace 0 the JSON line carries the universal end-to-end
// metrics; with --trace 1 the run adds the traced round and the line
// carries every other metric. The exit code is 0 only when every
// operation verified. bench/README.md documents workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/bench"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "keys every generated input")
		workload = flag.String("workload", "", "run one workload alone: "+strings.Join(workloadNames(), ", "))
		seconds  = flag.Float64("seconds", 0, "measured seconds per workload, split into rounds (0 = the full set's 30; 1.5 with -smoke)")
		traceArg = flag.Int("trace", -1, "driver form: 0 prints the end-to-end metrics as the last line, 1 the per-layer metrics")
		aa       = flag.Bool("aa", false, "run two sets interleaved round by round and fail if any gated metric differs by more than its bound")
		smoke    = flag.Bool("smoke", false, "tiny topology, 1.5 s per workload: exercises spawn, drive, scrape, verify, report")
		golden   = flag.Bool("update-golden", false, "record the sweep output hash in bench/golden instead of checking it")
	)
	flag.Parse()
	if err := run(*seed, *workload, *seconds, *traceArg, *aa, *smoke, *golden); err != nil {
		fmt.Fprintln(os.Stderr, "perfreport:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(bench.Workloads))
	for i, w := range bench.Workloads {
		names[i] = w.Name
	}
	return names
}

func run(seed uint64, workload string, seconds float64, traceArg int, aa, smoke, golden bool) error {
	root, err := bench.FindRoot(".")
	if err != nil {
		return err
	}
	// The driver's form names one workload and a trace mode; its result
	// goes out as the last line.
	driver := traceArg >= 0 && workload != ""
	// Everything a run leaves behind, the built programs included,
	// goes under bench/out, which bench/.gitignore ignores.
	out := filepath.Join(root, "bench", "out")
	cfg := bench.Config{
		Root: root, OutDir: out,
		Seed: seed, Seconds: seconds, Smoke: smoke, UpdateGolden: golden,
		Untraced: traceArg == 0, Log: os.Stderr,
	}
	if workload != "" {
		cfg.Workloads = []string{workload}
	}
	nsets := 1
	if aa {
		nsets = 2
	}
	sets, err := bench.RunSets(context.Background(), cfg, nsets)
	if err != nil {
		return err
	}
	report := bench.NewReport(root, sets)
	if aa {
		report.AA = bench.CompareAA(sets[0], sets[1])
	}
	for _, s := range sets {
		s.Print(os.Stdout)
	}
	for _, d := range report.AA {
		fmt.Printf("A/A DISAGREEMENT: %s\n", d)
	}
	if err := report.WriteFile(filepath.Join(out, "report.json")); err != nil {
		return err
	}
	// The committed ledger records full sets only (every workload, the
	// default seconds, traced): a single workload, a shortened run or
	// the smoke shape is not comparable with them.
	if workload == "" && seconds == 0 && !smoke && !cfg.Untraced {
		if err := bench.AppendLedger(filepath.Join(root, "bench", "ledger.jsonl"), report, sets[0]); err != nil {
			return err
		}
	}
	if driver {
		line, err := json.Marshal(bench.Contract(sets[0].Workloads[0], traceArg == 1))
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	if !report.Correct() {
		return fmt.Errorf("verification failed (see FAILED lines above and %s)", filepath.Join(out, "report.json"))
	}
	return nil
}
