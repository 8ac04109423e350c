// Command benchgate turns the perf trajectory into a regression gate:
// it reduces `go test -json` benchmark streams (what scripts/bench.sh
// writes to BENCH_<date>.json) to a compact name → ns/op map, and
// compares a fresh run against a committed baseline, failing when a
// hot-path benchmark slowed beyond the threshold. Multiple samples of
// one benchmark (`go test -count=N`) reduce to the minimum — the
// standard trick for gating on machine-noise-prone timings: the min
// is the least-interfered-with sample.
//
// Usage:
//
//	benchgate -extract BENCH_2026-08-08.json        # stream → compact JSON on stdout
//	benchgate -baseline scripts/bench_baseline.json -current /tmp/gate.json \
//	          -threshold 0.10 -match 'ResolveBatch|Wire|CachedScore'
//
// Compare mode exits 1 when any baseline benchmark matching -match
// regressed by more than -threshold (relative ns/op), or disappeared
// from the current run. Benchmarks faster than -floor in the baseline
// are reported but never gate — below a few microseconds the timer
// granularity drowns the signal. -current accepts either a raw
// stream or a compact extract.
//
// Shared CI runners drift tens of percent run to run, which would
// drown a 10% gate in machine noise. Each gated package therefore
// carries a BenchmarkCalibration (internal/benchcal), a fixed
// ALU-bound reference workload; when both baseline and current record
// it, every benchmark in that package is compared after dividing out
// the calibration drift ratio, so the gate tracks code changes, not
// runner speed. Calibration entries themselves never gate.
//
// The baseline may also carry a "ratios" object, "<numerator key> /
// <denominator key>" → the largest value tolerated. Each is checked on
// the current run alone: what instrumentation costs over the bare path
// is a quotient of two timings from one run on one machine, so it needs
// neither a baseline timing nor the calibration division, and it cannot
// be drowned by a baseline that has drifted away from HEAD.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// compact is the committed-baseline form: benchmark key → best ns/op.
type compact struct {
	// Note records how the file was produced, for humans diffing it.
	Note       string             `json:"note,omitempty"`
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Ratios bounds quotients of two benchmarks of the current run:
	// "<numerator key> / <denominator key>" → maximum.
	Ratios map[string]float64 `json:"ratios,omitempty"`
}

func main() {
	var (
		extract   = flag.String("extract", "", "reduce this go test -json stream to compact JSON on stdout")
		baseline  = flag.String("baseline", "", "compact baseline to compare against (with -extract: the file whose ratios the output keeps)")
		current   = flag.String("current", "", "fresh run (stream or compact) to compare")
		threshold = flag.Float64("threshold", 0.10, "maximum tolerated relative ns/op regression")
		match     = flag.String("match", ".", "gate only baseline benchmarks matching this regexp")
		floor     = flag.Duration("floor", time.Microsecond, "baseline entries faster than this are reported but never fail the gate")
		note      = flag.String("note", "", "annotation stored in -extract output")
	)
	flag.Parse()
	switch {
	case *extract != "":
		if err := runExtract(*extract, *note, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
	case *baseline != "" && *current != "":
		ok, err := runCompare(*baseline, *current, *threshold, *match, *floor)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchgate: need -extract FILE, or -baseline FILE -current FILE")
		os.Exit(2)
	}
}

// parseStream reduces a `go test -json` event stream to benchmark key
// → min ns/op. Benchmark results arrive as output events whose Test
// field names the benchmark and whose Output line carries
// "<iters> <ns> ns/op ...".
func parseStream(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	best := make(map[string]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Action  string
			Package string
			Test    string
			Output  string
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s is not a go test -json stream: %w", path, err)
		}
		if ev.Action != "output" || !strings.HasPrefix(ev.Test, "Benchmark") || !strings.Contains(ev.Output, " ns/op") {
			continue
		}
		fields := strings.Fields(ev.Output)
		ns := -1.0
		for i := 1; i < len(fields); i++ {
			if fields[i] == "ns/op" {
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad ns/op value in %q", path, ev.Output)
				}
				ns = v
				break
			}
		}
		if ns < 0 {
			continue
		}
		key := ev.Package + "." + ev.Test
		if cur, seen := best[key]; !seen || ns < cur {
			best[key] = ns
		}
	}
	return best, sc.Err()
}

// load reads either a compact extract or a raw stream, detected by
// shape; a stream has benchmarks and nothing else.
func load(path string) (compact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return compact{}, err
	}
	var c compact
	if err := json.Unmarshal(data, &c); err == nil && c.Benchmarks != nil {
		return c, nil
	}
	best, err := parseStream(path)
	return compact{Benchmarks: best}, err
}

// extract reduces path's stream to a compact baseline. The ratio bounds
// are policy, not measurement: they are carried over from the baseline
// being replaced, when one is named.
func extract(path, note, replaces string) (compact, error) {
	best, err := parseStream(path)
	if err != nil {
		return compact{}, err
	}
	if len(best) == 0 {
		return compact{}, fmt.Errorf("%s contains no benchmark results", path)
	}
	c := compact{Note: note, Benchmarks: best}
	if replaces != "" {
		old, err := load(replaces)
		if err != nil {
			return compact{}, err
		}
		c.Ratios = old.Ratios
	}
	return c, nil
}

func runExtract(path, note, replaces string) error {
	c, err := extract(path, note, replaces)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}

// calibration is the per-package machine-speed reference benchmark
// (internal/benchcal) that normalizes the gate against runner drift.
const calibration = "BenchmarkCalibration"

// pkgOf splits a "<package>.Benchmark<Name>" key back into its
// package half.
func pkgOf(key string) string {
	if i := strings.LastIndex(key, ".Benchmark"); i >= 0 {
		return key[:i]
	}
	return key
}

// calibrationScales returns, per package with a calibration sample in
// both runs, current/baseline calibration ns/op — the machine drift
// factor to divide out of that package's current timings.
func calibrationScales(base, cur map[string]float64) map[string]float64 {
	scales := make(map[string]float64)
	for k, b := range base {
		if !strings.HasSuffix(k, "."+calibration) || b <= 0 {
			continue
		}
		if c, present := cur[k]; present && c > 0 {
			scales[pkgOf(k)] = c / b
		}
	}
	return scales
}

func runCompare(basePath, curPath string, threshold float64, match string, floor time.Duration) (ok bool, err error) {
	re, err := regexp.Compile(match)
	if err != nil {
		return false, fmt.Errorf("bad -match: %w", err)
	}
	baseFile, err := load(basePath)
	if err != nil {
		return false, err
	}
	curFile, err := load(curPath)
	if err != nil {
		return false, err
	}
	base, cur := baseFile.Benchmarks, curFile.Benchmarks
	keys := make([]string, 0, len(base))
	for k := range base {
		if re.MatchString(k) && !strings.HasSuffix(k, "."+calibration) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return false, fmt.Errorf("no baseline benchmark matches %q", match)
	}
	scales := calibrationScales(base, cur)
	pkgs := make([]string, 0, len(scales))
	for pkg := range scales {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		fmt.Printf("cal  %-70s machine drift x%.3f (divided out below)\n", pkg, scales[pkg])
	}
	failures := 0
	for _, k := range keys {
		b := base[k]
		c, present := cur[k]
		if !present {
			fmt.Printf("FAIL %-70s baseline %10.0f ns/op, missing from current run\n", k, b)
			failures++
			continue
		}
		if scale, ok := scales[pkgOf(k)]; ok {
			c /= scale
		}
		rel := (c - b) / b
		status := "ok  "
		gated := b >= float64(floor.Nanoseconds())
		switch {
		case rel > threshold && gated:
			status = "FAIL"
			failures++
		case rel > threshold:
			status = "warn" // too fast to gate reliably; report only
		}
		fmt.Printf("%s %-70s %10.0f -> %10.0f ns/op (%+6.1f%%)\n", status, k, b, c, 100*rel)
	}
	ratioFailures, err := checkRatios(baseFile.Ratios, cur)
	if err != nil {
		return false, fmt.Errorf("%s: %w", basePath, err)
	}
	if failures+ratioFailures > 0 {
		fmt.Printf("benchgate: %d benchmark(s) regressed beyond %.0f%% of the committed baseline, %d same-run ratio(s) above their bound\n", failures, 100*threshold, ratioFailures)
		return false, nil
	}
	fmt.Printf("benchgate: %d benchmark(s) within %.0f%% of the committed baseline, %d same-run ratio(s) within their bound\n", len(keys), 100*threshold, len(baseFile.Ratios))
	return true, nil
}

// checkRatios holds each "<numerator> / <denominator>" bound against the
// current run's own timings, uncalibrated, and returns how many failed:
// above the bound, or missing a side.
func checkRatios(ratios, cur map[string]float64) (failures int, err error) {
	names := make([]string, 0, len(ratios))
	for name := range ratios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		num, den, ok := strings.Cut(name, " / ")
		if !ok {
			return 0, fmt.Errorf("ratio %q is not \"<numerator key> / <denominator key>\"", name)
		}
		n, d := cur[num], cur[den]
		switch {
		case n <= 0 || d <= 0:
			fmt.Printf("FAIL %s: a side is missing from the current run\n", name)
			failures++
		case n/d > ratios[name]:
			fmt.Printf("FAIL %s = %.2f, above %.2f (%.0f / %.0f ns/op, same run)\n", name, n/d, ratios[name], n, d)
			failures++
		default:
			fmt.Printf("ok   %s = %.2f, at most %.2f (%.0f / %.0f ns/op, same run)\n", name, n/d, ratios[name], n, d)
		}
	}
	return failures, nil
}
