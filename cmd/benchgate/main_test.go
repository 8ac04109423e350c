package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// stream mimics real `go test -json` benchmark output, including the
// quirk that a benchmark's name and its measurement arrive as
// separate output events (the name event ends with a tab).
const stream = `{"Action":"output","Package":"repro/internal/fabric","Test":"BenchmarkResolveBatch","Output":"BenchmarkResolveBatch \t"}
{"Action":"output","Package":"repro/internal/fabric","Test":"BenchmarkResolveBatch","Output":"      10\t     87730 ns/op\t  46765892 routes/s\n"}
{"Action":"output","Package":"repro/internal/fabric","Test":"BenchmarkResolveBatch","Output":"      10\t     91000 ns/op\t  45000000 routes/s\n"}
{"Action":"run","Package":"repro/internal/wire","Test":"BenchmarkWireEncodeRequest"}
{"Action":"output","Package":"repro/internal/wire","Test":"BenchmarkWireEncodeRequest","Output":"     100\t      9000 ns/op\n"}
{"Action":"output","Package":"repro/internal/wire","Output":"PASS\n"}
`

func TestParseStreamKeepsMinPerBenchmark(t *testing.T) {
	got, err := parseStream(writeFile(t, "stream.json", stream))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"repro/internal/fabric.BenchmarkResolveBatch":    87730,
		"repro/internal/wire.BenchmarkWireEncodeRequest": 9000,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestLoadAcceptsBothShapes(t *testing.T) {
	compactPath := writeFile(t, "compact.json", `{"benchmarks":{"p.BenchmarkX":100}}`)
	fromCompact, err := load(compactPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromCompact.Benchmarks["p.BenchmarkX"] != 100 {
		t.Fatalf("compact load = %v", fromCompact)
	}
	fromStream, err := load(writeFile(t, "stream.json", stream))
	if err != nil {
		t.Fatal(err)
	}
	if fromStream.Benchmarks["repro/internal/wire.BenchmarkWireEncodeRequest"] != 9000 {
		t.Fatalf("stream load = %v", fromStream)
	}
}

func compare(t *testing.T, base, cur string, threshold float64, floor time.Duration) bool {
	t.Helper()
	ok, err := runCompare(writeFile(t, "base.json", base), writeFile(t, "cur.json", cur), threshold, ".", floor)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestCompareFailsOnRegression(t *testing.T) {
	base := `{"benchmarks":{"p.BenchmarkX":10000}}`
	if !compare(t, base, `{"benchmarks":{"p.BenchmarkX":10900}}`, 0.10, time.Microsecond) {
		t.Error("9% slower must pass a 10% gate")
	}
	if compare(t, base, `{"benchmarks":{"p.BenchmarkX":11500}}`, 0.10, time.Microsecond) {
		t.Error("15% slower must fail a 10% gate")
	}
	if compare(t, base, `{"benchmarks":{}}`, 0.10, time.Microsecond) {
		t.Error("a missing benchmark must fail the gate")
	}
}

func TestCompareFloorReportsButNeverGates(t *testing.T) {
	base := `{"benchmarks":{"p.BenchmarkTiny":500}}`
	cur := `{"benchmarks":{"p.BenchmarkTiny":900}}`
	if !compare(t, base, cur, 0.10, time.Microsecond) {
		t.Error("sub-floor benchmark regressed but must not gate")
	}
	if compare(t, base, cur, 0.10, 100*time.Nanosecond) {
		t.Error("with the floor lowered the same regression must gate")
	}
}

func TestCompareDividesOutCalibrationDrift(t *testing.T) {
	// The machine ran 1.5x slower (calibration 1000 → 1500); the
	// benchmark's raw 50% "regression" normalizes away to 0%.
	base := `{"benchmarks":{"p.BenchmarkX":10000,"p.BenchmarkCalibration":1000}}`
	cur := `{"benchmarks":{"p.BenchmarkX":15000,"p.BenchmarkCalibration":1500}}`
	if !compare(t, base, cur, 0.10, time.Microsecond) {
		t.Error("uniform machine drift must not fail the gate")
	}
	// Same drift, but the benchmark slowed 2x: still fails.
	cur = `{"benchmarks":{"p.BenchmarkX":30000,"p.BenchmarkCalibration":1500}}`
	if compare(t, base, cur, 0.10, time.Microsecond) {
		t.Error("a real regression must fail even with calibration drift")
	}
	// Calibration never gates itself, even when it is all that moved.
	base = `{"benchmarks":{"p.BenchmarkCalibration":1000,"p.BenchmarkX":10000}}`
	cur = `{"benchmarks":{"p.BenchmarkCalibration":2000,"p.BenchmarkX":10000}}`
	if !compare(t, base, cur, 0.10, time.Microsecond) {
		t.Error("calibration drift alone must not fail the gate")
	}
}

func TestCompareChecksSameRunRatios(t *testing.T) {
	// The bound is on the current run's own quotient: the baseline's
	// timings and the calibration drift (x2 here) play no part in it.
	base := `{"benchmarks":{"p.BenchmarkBare":1000,"p.BenchmarkObserved":9000,"p.BenchmarkCalibration":100},
		"ratios":{"p.BenchmarkObserved / p.BenchmarkBare":2.2}}`
	if !compare(t, base, `{"benchmarks":{"p.BenchmarkBare":2000,"p.BenchmarkObserved":4200,"p.BenchmarkCalibration":200}}`, 10, time.Microsecond) {
		t.Error("a ratio of 2.1 must pass a bound of 2.2")
	}
	if compare(t, base, `{"benchmarks":{"p.BenchmarkBare":2000,"p.BenchmarkObserved":4600,"p.BenchmarkCalibration":200}}`, 10, time.Microsecond) {
		t.Error("a ratio of 2.3 must fail a bound of 2.2, however loose the per-benchmark threshold")
	}
	base = `{"benchmarks":{"p.BenchmarkBare":1000},"ratios":{"p.BenchmarkGone / p.BenchmarkBare":2}}`
	if compare(t, base, `{"benchmarks":{"p.BenchmarkBare":1000}}`, 0.10, time.Microsecond) {
		t.Error("a ratio with a side missing from the current run must fail")
	}
	base = `{"benchmarks":{"p.BenchmarkBare":1000},"ratios":{"p.BenchmarkBare":2}}`
	if _, err := runCompare(writeFile(t, "base.json", base), writeFile(t, "cur.json", base), 0.10, ".", time.Microsecond); err == nil {
		t.Error("a ratio name without \" / \" must be an error")
	}
}

func TestExtractKeepsRatios(t *testing.T) {
	old := writeFile(t, "old.json", `{"benchmarks":{"p.BenchmarkX":1},"ratios":{"p.BenchmarkY / p.BenchmarkX":1.5}}`)
	got, err := extract(writeFile(t, "stream.json", stream), "rewritten", old)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ratios["p.BenchmarkY / p.BenchmarkX"] != 1.5 || got.Benchmarks["repro/internal/wire.BenchmarkWireEncodeRequest"] != 9000 {
		t.Errorf("rewritten baseline %+v: want the stream's timings and the old file's ratios", got)
	}
}

func TestPkgOf(t *testing.T) {
	if got := pkgOf("repro/internal/wire.BenchmarkWireEncodeRequest"); got != "repro/internal/wire" {
		t.Fatalf("pkgOf = %q", got)
	}
}
