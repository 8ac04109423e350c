// Package bench is the repository's benchmark: four workloads driven
// through real fabricd and experiments processes, end-to-end metrics
// measured with tracing off, and a separate traced round that splits
// them into per-layer budgets by timing calls into each layer's public
// functions. cmd/perfreport is its command line; BENCHMARK.json at the
// repository root is its contract; README.md in this directory
// documents every workload and metric.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Run shape: every workload measures for the same number of seconds,
// split into rounds; in each round every workload runs its phases
// once, so a slow phase of the shared machine poisons one round value,
// not the median over rounds. An odd count makes that median one
// round's own value and leaves it unmoved by two poisoned rounds.
const (
	rounds = 5
	// setSeconds is the measured time per workload of a full set,
	// smokeSeconds that of the smoke shape.
	setSeconds   = 30
	smokeSeconds = 1.5
	// starts is how many starts of the program under test setup_s is
	// the median of.
	starts = 15
)

// Config selects what a run does.
type Config struct {
	// Root is the repository checkout; OutDir receives report.json, the
	// trace files, the daemons' logs and, under bin/, the built programs.
	Root, OutDir string
	// Seed keys every generated input.
	Seed uint64
	// Workloads names the workloads to run, in order; empty means all.
	Workloads []string
	// Seconds is the measured time per workload, split into rounds;
	// 0 selects setSeconds (smokeSeconds with Smoke).
	Seconds float64
	// Untraced skips the traced round (per-layer metrics read 0).
	Untraced bool
	// Smoke selects the tiny topology and inputs.
	Smoke bool
	// UpdateGolden records the sweep output hash instead of checking it.
	UpdateGolden bool
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// env is the part of a run the workloads share.
type env struct {
	sz           sizes
	seed         uint64
	fabricd      string
	experiments  string
	outDir       string
	goldenPath   string
	updateGolden bool
	setupStarts  int
	log          io.Writer
}

func (e *env) logf(format string, args ...any) {
	if e.log != nil {
		fmt.Fprintf(e.log, format+"\n", args...)
	}
}

// workload is one of the four benchmark workloads.
type workload interface {
	// start starts the program under test once and verifies its first
	// output: one setup_s sample. A daemon workload keeps the daemon it
	// started and stops the one before.
	start(ctx context.Context) error
	// round runs the measured phases once, for about d.
	round(ctx context.Context, r int, d time.Duration) error
	// traced runs the traced round: per-layer metrics and spans.
	traced(ctx context.Context, d time.Duration) error
	// finish collects the end-of-workload readings, stops every process
	// the workload started and returns its result.
	finish() *WorkloadResult
	// stop ends the workload's processes without reporting.
	stop()
}

func newWorkload(e *env, name string) (workload, error) {
	switch name {
	case ResolveBulk, ResolveSmall:
		return newResolveWorkload(e, name)
	case ChurnMixed:
		return newChurnWorkload(e)
	case ReproSweep:
		return newSweepWorkload(e), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// Set is one set's results: every workload's metrics plus the machine
// readings taken while it ran.
type Set struct {
	Seed uint64 `json:"seed"`
	// Seconds is the measured time per workload; each workload's result
	// says how many rounds it split into.
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Smoke     bool              `json:"smoke,omitempty"`
	Machine   Machine           `json:"machine"`
	Workloads []*WorkloadResult `json:"workloads"`
}

// Correct reports whether every workload verified.
func (s *Set) Correct() bool {
	for _, w := range s.Workloads {
		if !w.Correct {
			return false
		}
	}
	return len(s.Workloads) > 0
}

// Workload returns the named workload's result, nil when absent.
func (s *Set) Workload(name string) *WorkloadResult {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// prepare builds the programs under test and the shared environment.
func prepare(ctx context.Context, cfg Config) (*env, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("bench: Config.Root is required")
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	// Daemon logs are appended to across restarts; start each run clean.
	if old, err := filepath.Glob(filepath.Join(cfg.OutDir, "*-fabricd.log")); err == nil {
		for _, p := range old {
			os.Remove(p)
		}
	}
	bin := filepath.Join(cfg.OutDir, "bin")
	if err := Build(ctx, cfg.Root, bin); err != nil {
		return nil, err
	}
	e := &env{
		sz:           fullSizes(),
		seed:         cfg.Seed,
		fabricd:      filepath.Join(bin, "fabricd"),
		experiments:  filepath.Join(bin, "experiments"),
		outDir:       cfg.OutDir,
		goldenPath:   filepath.Join(cfg.Root, "bench", "golden", "repro_sweep.json"),
		updateGolden: cfg.UpdateGolden,
		setupStarts:  starts,
		log:          cfg.Log,
	}
	if cfg.Smoke {
		e.sz = smokeSizes()
		e.setupStarts = 2
	}
	return e, nil
}

// budget resolves the measured time per workload of a run.
func (cfg Config) budget() time.Duration {
	secs := cfg.Seconds
	switch {
	case secs > 0:
	case cfg.Smoke:
		secs = smokeSeconds
	default:
		secs = setSeconds
	}
	return time.Duration(secs * float64(time.Second))
}

func workloadNames(cfg Config) []string {
	if len(cfg.Workloads) > 0 {
		return cfg.Workloads
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return names
}

// RunSets runs n sets of the same code: the timed starts of every
// selected workload interleaved start by start across sets, the
// measured rounds interleaved round by round across workloads and
// sets, then the traced round, then teardown. Two sets
// are the A/A shape: both see the same phases of the machine, so what
// differs between them is the measurement's own noise. A workload that
// cannot run at all is an error; failed operations are counted in its
// result, not returned.
func RunSets(ctx context.Context, cfg Config, n int) (_ []*Set, err error) {
	e, err := prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	budget := cfg.budget()
	length := budget / rounds
	names := workloadNames(cfg)
	sets := make([][]workload, n)
	probes := make([]*machineProbe, n)
	defer func() {
		if err != nil {
			for _, ws := range sets {
				for _, w := range ws {
					w.stop()
				}
			}
		}
	}()
	for s := range sets {
		probes[s] = newMachineProbe()
		for _, name := range names {
			w, err := newWorkload(e, name)
			if err != nil {
				return nil, err
			}
			sets[s] = append(sets[s], w)
		}
	}
	for i, name := range names {
		e.logf("setting up %s", name)
		for k := 0; k < e.setupStarts; k++ {
			for j := range sets {
				s := (j + k) % n
				if err := sets[s][i].start(ctx); err != nil {
					return nil, fmt.Errorf("bench: %s set-up: %w", name, err)
				}
			}
		}
	}
	// Every workload measures for the same budget. A daemon workload's
	// round is a time slice, so it runs exactly `rounds` of them; the
	// sweep's round is a fixed amount of work, so it runs as many as
	// fit (a round is started while at least half of it fits). Each
	// result carries the count it ran. Which set goes first alternates
	// from round to round (and from start to start above): the set that
	// follows another workload's round finds colder caches than the one
	// that follows its own twin, 5-10 % on churn_mixed.
	spent := make([][]time.Duration, n)
	last := make([][]time.Duration, n)
	count := make([][]int, n)
	for s := range sets {
		spent[s] = make([]time.Duration, len(names))
		last[s] = make([]time.Duration, len(names))
		count[s] = make([]int, len(names))
	}
	for r, ran := 0, true; ran; r++ {
		ran = false
		for i := range names {
			for j := range sets {
				s := (j + r) % n
				if spent[s][i]+last[s][i]/2 > budget {
					continue
				}
				probes[s].calibrate()
				e.logf("set %d round %d: %s", s, r+1, names[i])
				start := time.Now()
				if err := sets[s][i].round(ctx, r, length); err != nil {
					return nil, fmt.Errorf("bench: %s round %d: %w", names[i], r, err)
				}
				last[s][i] = time.Since(start)
				spent[s][i] += last[s][i]
				count[s][i]++
				ran = true
			}
		}
	}
	if !cfg.Untraced {
		for i := range names {
			for s := range sets {
				e.logf("set %d traced round: %s", s, names[i])
				if err := sets[s][i].traced(ctx, length); err != nil {
					return nil, fmt.Errorf("bench: %s traced round: %w", names[i], err)
				}
			}
		}
	}
	out := make([]*Set, n)
	for s := range sets {
		set := &Set{Seed: cfg.Seed, Seconds: budget.Seconds(), Traced: !cfg.Untraced, Smoke: cfg.Smoke}
		set.Machine = probes[s].finish()
		for i, w := range sets[s] {
			res := w.finish()
			res.Rounds = count[s][i]
			res.Metrics["machine.calibration_ns"] = Value{Value: set.Machine.CalibrationNS, Unit: "ns", N: set.Machine.CalibrationN}
			res.Metrics["machine.steal_ratio"] = Value{Value: set.Machine.StealRatio, Unit: "ratio"}
			set.Workloads = append(set.Workloads, res)
		}
		out[s] = set
	}
	return out, nil
}
