package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// tableRuns is how many times one start times experiments -table1:
// the run is a couple of milliseconds, so many are cheap and the
// median needs them.
const tableRuns = 7

// sweepWorkload is repro_sweep: the paper's figure set through the
// experiments CLI, one process per sweep per round, cold table cache
// per process. No daemon.
type sweepWorkload struct {
	env    *env
	tally  Tally
	acc    *acc
	starts []float64 // setup_s samples, seconds
	rss    float64
	hash   string
	notes  []string
}

func newSweepWorkload(e *env) *sweepWorkload {
	return &sweepWorkload{env: e, acc: newAcc()}
}

// start times experiments -table1, the CLI's smallest complete output.
func (w *sweepWorkload) start(ctx context.Context) error {
	for k := 0; k < tableRuns; k++ {
		w.tally.Attempt(1)
		res, err := runProc(ctx, w.env.experiments, "-table1")
		if err != nil {
			w.tally.Fail("table1: %v", err)
			return err
		}
		if !bytes.Contains(res.Stdout, []byte("Table I")) {
			w.tally.Fail("table1: output does not contain the table")
		}
		w.starts = append(w.starts, res.Wall.Seconds())
	}
	return nil
}

// stripTimings drops the CLI's wall-clock lines ("    [0.12s]"), the
// only part of its output that varies run to run.
func stripTimings(out []byte) []byte {
	var kept [][]byte
	for _, line := range bytes.Split(out, []byte("\n")) {
		t := bytes.TrimSpace(line)
		if len(t) > 3 && t[0] == '[' && bytes.HasSuffix(t, []byte("s]")) {
			if _, err := strconv.ParseFloat(string(t[1:len(t)-2]), 64); err == nil {
				continue
			}
		}
		kept = append(kept, line)
	}
	return bytes.Join(kept, []byte("\n"))
}

// outputHash hashes the two sweeps' stdout with timing lines stripped.
func outputHash(analytic, simulated []byte) string {
	h := sha256.New()
	h.Write(stripTimings(analytic))
	h.Write([]byte("\n--\n"))
	h.Write(stripTimings(simulated))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenKey identifies a sweep configuration in the golden file.
func (w *sweepWorkload) goldenKey() string {
	return strings.Join(w.env.sz.sweepArgs(), " ") + " | " + strings.Join(w.env.sz.simArgs(), " ")
}

// round runs the analytic figure set and the simulated slice once
// each; the length argument is ignored — the work is the unit.
func (w *sweepWorkload) round(ctx context.Context, r int, d time.Duration) error {
	w.tally.Attempt(2)
	analytic, err := runProc(ctx, w.env.experiments, w.env.sz.sweepArgs()...)
	if err != nil {
		w.tally.Fail("analytic sweep: %v", err)
		return err
	}
	simulated, err := runProc(ctx, w.env.experiments, w.env.sz.simArgs()...)
	if err != nil {
		w.tally.Fail("simulated sweep: %v", err)
		return err
	}
	wall := analytic.Wall + simulated.Wall
	w.acc.round("sweep_s", analytic.Wall.Seconds(), 1)
	w.acc.round("sim_sweep_s", simulated.Wall.Seconds(), 1)
	w.acc.round("unit_p50_ms", ms(wall), 1)
	w.acc.round("units_per_s", 1/wall.Seconds(), 1)
	w.acc.round("cpu_ms_per_unit", ms(analytic.CPU+simulated.CPU), 1)
	for _, rss := range []float64{analytic.RSSMB, simulated.RSSMB} {
		if rss > w.rss {
			w.rss = rss
		}
	}
	got := outputHash(analytic.Stdout, simulated.Stdout)
	if w.hash != "" && got != w.hash {
		w.tally.Fail("round %d: sweep output hash %s differs from the previous round's %s", r, got[:12], w.hash[:12])
	}
	w.hash = got
	return w.checkGolden(got)
}

// checkGolden compares the output hash with the committed golden for
// this sweep configuration. A missing golden is a failure unless the
// run was asked to record it.
func (w *sweepWorkload) checkGolden(got string) error {
	goldens := make(map[string]string)
	data, err := os.ReadFile(w.env.goldenPath)
	if err == nil {
		if err := json.Unmarshal(data, &goldens); err != nil {
			return fmt.Errorf("bench: %s: %w", w.env.goldenPath, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	key := w.goldenKey()
	want, ok := goldens[key]
	switch {
	case ok && want == got:
		return nil
	case w.env.updateGolden:
		goldens[key] = got
		out, err := json.MarshalIndent(goldens, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(w.env.goldenPath), 0o755); err != nil {
			return err
		}
		return os.WriteFile(w.env.goldenPath, append(out, '\n'), 0o644)
	case !ok:
		w.tally.Fail("no golden for sweep configuration %q in %s (record one with -update-golden)", key, w.env.goldenPath)
	default:
		w.tally.Fail("sweep output hash %s does not match the golden %s", got[:12], want[:12])
	}
	return nil
}

func (w *sweepWorkload) traced(ctx context.Context, d time.Duration) error {
	return w.layers()
}

func (w *sweepWorkload) finish() *WorkloadResult {
	w.acc.put("rss_mb", w.rss, 0)
	w.acc.put("setup_s", Median(w.starts), len(w.starts))
	res := finishResult(ReproSweep, w.acc, &w.tally, w.notes)
	res.OutputHash = w.hash
	return res
}

func (w *sweepWorkload) stop() {}
