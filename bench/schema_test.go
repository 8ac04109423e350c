package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the
// catalog from drifting: the same workloads with the same reasons,
// the universal metrics as end_to_end with their bounds, every other
// metric as per_layer, each with unit and direction, in catalog order.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(top))
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(b.Paths, " "); got != "bench cmd/perfreport" {
		t.Errorf("paths = %q", got)
	}
	if got := strings.Join(b.Command, " "); got != "go run ./cmd/perfreport" {
		t.Errorf("command = %q", got)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}

	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads, the catalog has %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, catalog %+v", i, b.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var e2e, layer []Metric
	for _, m := range Catalog {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("catalog entry %q (%q) does not fit the contract's name and unit limits", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("catalog lists %q twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Doc == "" {
			t.Errorf("%s has no definition", m.Name)
		}
		if m.Universal() {
			e2e = append(e2e, m)
			if len(m.Workloads) != 0 || m.Bound <= 0 || m.Bound > m.DriverBound || m.DriverBound > 0.25 {
				t.Errorf("%s: a universal metric is defined on every workload, with an A/A bound no looser than the driver's and that at most 0.25", m.Name)
			}
		} else {
			layer = append(layer, m)
		}
		for _, mv := range m.Moves {
			target, ok := MetricByName(mv.Metric)
			if !ok || target.Bound == 0 || !target.AppliesTo(mv.Workload) {
				t.Errorf("%s moves %s@%s, which is not a gated metric of that workload", m.Name, mv.Metric, mv.Workload)
			}
		}
		// Every layer metric of a module says what it should move.
		if i := strings.IndexByte(m.Name, '.'); i > 0 && len(m.Moves) == 0 {
			switch m.Name[:i] {
			case "client", "trace", "machine":
			default:
				t.Errorf("%s lists no end-to-end metric it should move", m.Name)
			}
		}
	}
	if _, ok := MetricByName("setup_s"); !ok {
		t.Error("the catalog lacks setup_s")
	}

	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("end_to_end has %d metrics, the catalog %d universal ones", len(b.EndToEnd), len(e2e))
	}
	for i, m := range e2e {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.DriverBound {
			t.Errorf("end_to_end[%d] = %+v, catalog %s %s %s %v", i, got, m.Name, m.Unit, m.Better, m.DriverBound)
		}
	}
	if len(b.PerLayer) != len(layer) {
		t.Fatalf("per_layer has %d metrics, the catalog %d", len(b.PerLayer), len(layer))
	}
	if len(layer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(layer))
	}
	for i, m := range layer {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
	}

	// The issue's names are all there.
	for _, n := range []string{
		"setup_s", "pairs_per_s", "rtt_p50_us", "server_cpu_us_per_kpair", "rss_mb", "optimize_p50_ms",
		"faillink_p50_ms", "heal_p50_ms", "submit_p50_ms", "sweep_s", "sim_sweep_s", "failed_ops_ratio",
		"client.slo_miss_ratio.r4000", "transport.residual_us", "fabric.optimize_self_ms", "machine.steal_ratio",
	} {
		if !seen[n] {
			t.Errorf("the catalog lacks %s", n)
		}
	}
}

// TestContractLineCarriesExactlyTheRequestedKind checks the driver
// line: --trace 0 prints every end_to_end metric and nothing else,
// --trace 1 every per_layer metric and nothing else.
func TestContractLineCarriesExactlyTheRequestedKind(t *testing.T) {
	var tally Tally
	tally.Attempt(3)
	res := finishResult(ResolveBulk, newAcc(), &tally, nil)
	for _, traced := range []bool{false, true} {
		line := Contract(res, traced)
		want := 0
		for _, m := range Catalog {
			if m.Universal() != traced {
				want++
				if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("traced=%v: %s missing or with unit %q", traced, m.Name, v.Unit)
				}
			}
		}
		if len(line.Metrics) != want {
			t.Errorf("traced=%v: %d metrics on the line, want %d", traced, len(line.Metrics), want)
		}
		data, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(data, &keys); err != nil || len(keys) != 4 {
			t.Errorf("the line has keys %v, want correct, attempted, failed, metrics", keys)
		}
	}
}
