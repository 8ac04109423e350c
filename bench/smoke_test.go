package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs what `perfreport -smoke` runs: the four workloads on
// a tiny tree, one short set plus the traced round, end to end —
// build, spawn, drive, scrape, verify, replay, report. It asserts
// correctness and shape, never speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs fabricd and experiments; skipped in -short mode")
	}
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	var log bytes.Buffer
	cfg := Config{
		Root: root, OutDir: out,
		Seed: 2, Smoke: true, Log: &log,
	}
	sets, err := RunSets(context.Background(), cfg, 1)
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, log.String())
	}
	set := sets[0]
	if len(set.Workloads) != len(Workloads) {
		t.Fatalf("ran %d workloads, want %d", len(set.Workloads), len(Workloads))
	}
	for i, wl := range set.Workloads {
		if wl.Name != Workloads[i].Name {
			t.Errorf("workload %d is %s, want %s", i, wl.Name, Workloads[i].Name)
		}
		if !wl.Correct || wl.Failed != 0 || wl.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", wl.Name, wl.Correct, wl.Attempted, wl.Failed, wl.Failures)
		}
		for _, m := range Catalog {
			v, ok := wl.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: metric %s missing or with unit %q, want %q", wl.Name, m.Name, v.Unit, m.Unit)
			}
			// Every universal metric is a real, non-zero reading on
			// every workload; so is every gated per-workload metric on
			// the workloads it is defined for.
			if (m.Universal() || (m.Bound > 0 && m.AppliesTo(wl.Name))) && !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive reading", wl.Name, m.Name, v.Value)
			}
			if !m.AppliesTo(wl.Name) && v.Value != 0 {
				t.Errorf("%s: %s = %v on a workload that does not exercise it", wl.Name, m.Name, v.Value)
			}
		}
		if wl.Metrics["client.stale_generation_count"].Value != 0 {
			t.Errorf("%s: a connection saw the generation go backwards", wl.Name)
		}
	}

	// The traced round filled the layers each workload exercises.
	layerReadings := map[string][]string{
		ResolveBulk:  {"daemon.service_us", "daemon.service_closed_us", "daemon.decode_us", "wire.decode_request_ns_per_pair", "wire.loopback_rtt_us", "fabric.lookup_ns_per_pair", "fabric.new_ms", "trace.overhead_ratio"},
		ResolveSmall: {"daemon.service_us", "daemon.resolve_us", "wire.frame_ns", "wire.encode_response_ns_per_pair", "fabric.telemetry_ns_per_pair"},
		ChurnMixed:   {"daemon.optimize_ms", "daemon.swap_build_ms", "daemon.place_us", "fabric.optimize_ms", "fabric.faillink_ms", "fabric.heal_ms", "core.colored_build_ms", "core.patch_table_ms", "core.cache_hit_ratio", "contention.verify_deadlock_ms", "evaluate.loadstate_build_ms", "sched.submit_ms", "sched.place_us"},
		ReproSweep:   {"experiments.figure2_s", "experiments.cells_per_s", "venus.events_per_s", "dimemas.replay_ms", "core.build_table_ms", "contention.analyze_ms"},
	}
	for name, metrics := range layerReadings {
		wl := set.Workload(name)
		for _, m := range metrics {
			if !(wl.Metrics[m].Value > 0) {
				t.Errorf("%s: layer metric %s = %v, want a positive reading", name, m, wl.Metrics[m].Value)
			}
		}
		if !(wl.Metrics["machine.calibration_ns"].Value > 0) {
			t.Errorf("%s: no machine calibration", name)
		}
	}
	churn := set.Workload(ChurnMixed)
	if churn.DecisionHash == "" || len(churn.DecisionChain) == 0 {
		t.Error("churn_mixed reports no decision hash")
	}
	agreed := false
	for _, n := range churn.Notes {
		agreed = agreed || strings.Contains(n, "in-process replica agrees")
	}
	if !agreed {
		t.Errorf("churn_mixed did not check its decisions against the in-process replica: %q", churn.Notes)
	}
	// The budget conditions are evaluated, whichever way they fall on
	// the tiny tree: the trailer sum and the per-pair share on bulk,
	// the per-pair share on small.
	if n := len(set.Workload(ResolveBulk).Budget); n != 2 {
		t.Errorf("resolve_bulk evaluated %d budget conditions, want 2", n)
	}
	if n := len(set.Workload(ResolveSmall).Budget); n != 1 {
		t.Errorf("resolve_small evaluated %d budget conditions, want 1", n)
	}
	for _, wl := range set.Workloads {
		if wl.Rounds < 1 {
			t.Errorf("%s reports %d measured rounds", wl.Name, wl.Rounds)
		}
	}
	if set.Workload(ReproSweep).OutputHash == "" {
		t.Error("repro_sweep reports no output hash")
	}

	// The trace files and the report are written, and the report
	// round-trips.
	for _, name := range []string{ResolveBulk, ResolveSmall, ChurnMixed, ReproSweep} {
		data, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
		if err != nil {
			t.Errorf("trace file: %v", err)
			continue
		}
		var doc struct {
			Spans []Span `json:"spans"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 {
			t.Errorf("trace-%s.json: %d spans, err %v", name, len(doc.Spans), err)
		}
	}
	report := NewReport(root, []*Set{set})
	path := filepath.Join(out, "report.json")
	if err := report.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil || len(back.Sets) != 1 || !back.Correct() {
		t.Errorf("report.json does not round-trip: err %v", err)
	}
	ledger := filepath.Join(out, "ledger.jsonl")
	if err := AppendLedger(ledger, report, set); err != nil {
		t.Fatal(err)
	}
	if err := AppendLedger(ledger, report, set); err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(lines, []byte("\n")); n != 2 {
		t.Errorf("ledger has %d lines after two appends", n)
	}
	var line LedgerLine
	if err := json.Unmarshal(bytes.SplitN(lines, []byte("\n"), 2)[0], &line); err != nil {
		t.Fatalf("ledger line: %v", err)
	}
	if line.Machine.NProc == 0 || len(line.Workloads) != len(Workloads) || !(line.Workloads[ChurnMixed]["optimize_p50_ms"] > 0) {
		t.Errorf("ledger line is missing the machine or the metrics: %+v", line.Machine)
	}

	// Same code, same seed, measured twice: the sets agree on every
	// decision and output (their timings on a tiny run are not gated).
	var printed bytes.Buffer
	set.Print(&printed)
	for _, want := range []string{"unit_p50_ms", "optimize_p50_ms", "transport.residual_us", "decision_hash", "output_hash", "rounds", "budget "} {
		if !strings.Contains(printed.String(), want) {
			t.Errorf("printed report does not mention %s", want)
		}
	}
}

// TestCompareAA checks the A/A gate on synthetic sets: it fires on a
// gated metric past its bound in either direction, on a decision
// chain that diverges, and on nothing else.
func TestCompareAA(t *testing.T) {
	mk := func(unit, cpu float64, chain []string) *Set {
		a := newAcc()
		a.put("unit_p50_ms", unit, 1)
		a.put("units_per_s", 1000/unit, 1)
		a.put("cpu_ms_per_unit", cpu, 1)
		a.put("client.rtt_p99_us", unit*5000, 1) // ungated
		var tally Tally
		tally.Attempt(1)
		res := finishResult(ChurnMixed, a, &tally, nil)
		res.DecisionChain = chain
		return &Set{Workloads: []*WorkloadResult{res}}
	}
	base := mk(100, 50, []string{"a", "b", "c"})
	if d := CompareAA(base, mk(104, 52, []string{"a", "b", "c", "d"})); len(d) != 0 {
		t.Errorf("sets within every bound disagree: %v", d)
	}
	if d := CompareAA(base, mk(100, 50, []string{"a", "b"})); len(d) != 0 {
		t.Errorf("a shorter but equal decision chain disagrees: %v", d)
	}
	d := CompareAA(base, mk(100, 70, []string{"a", "b", "c"}))
	if len(d) != 1 || !strings.Contains(d[0], "cpu_ms_per_unit") {
		t.Errorf("40%% more CPU: %v, want exactly cpu_ms_per_unit", d)
	}
	if d := CompareAA(mk(100, 70, nil), mk(100, 50, nil)); len(d) != 1 {
		t.Errorf("the gate must fire in either direction: %v", d)
	}
	d = CompareAA(base, mk(100, 50, []string{"a", "x", "y"}))
	if len(d) != 1 || !strings.Contains(d[0], "decision") {
		t.Errorf("diverging decisions: %v", d)
	}
	// A metric recorded as unheld on the workload is reported, not
	// gated; the same difference on a held one fires.
	slow := mk(100, 50, nil)
	for name, v := range map[string]float64{"submit_p50_ms": 20, "heal_p50_ms": 20} {
		base.Workloads[0].Metrics[name] = Value{Value: v, Unit: "ms"}
		slow.Workloads[0].Metrics[name] = Value{Value: 1.5 * v, Unit: "ms"}
	}
	if d := CompareAA(base, slow); len(d) != 1 || !strings.Contains(d[0], "heal_p50_ms") {
		t.Errorf("50%% slower submit (unheld) and heal (held): %v, want exactly heal_p50_ms", d)
	}
}
