// Package experiments reproduces every table and figure of the
// paper's evaluation: the Table I label schema, the Fig. 2 slowdown
// curves of Random/S-mod-k/D-mod-k/Colored under progressive tree
// slimming, the Fig. 3 CG traffic decomposition, the Fig. 4
// routes-per-NCA censuses, and the Fig. 5 boxplot comparison of the
// proposed r-NCA-u / r-NCA-d schemes. Each experiment can run on the
// fast analytic contention model or on the full trace-replay +
// network-simulation pipeline.
package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/dimemas"
	"repro/internal/pattern"
	"repro/internal/traces"
)

// App is one of the paper's benchmark applications, reduced to the
// structure the routing study needs: its communication phases and a
// replayable trace.
type App struct {
	// Name is the paper's label ("WRF-256", "CG.D-128").
	Name string
	// Ranks is the process count.
	Ranks int
	// DefaultBytes is the per-message size of the paper's runs.
	DefaultBytes int64
	// phases builds the communication phases at a message size.
	phases func(bytes int64) []*pattern.Pattern
}

// Phases returns the communication phases with the given per-message
// size (0 means the paper's default).
func (a *App) Phases(bytes int64) []*pattern.Pattern {
	if bytes <= 0 {
		bytes = a.DefaultBytes
	}
	return a.phases(bytes)
}

// Trace lowers the phases into a replayable trace.
func (a *App) Trace(bytes int64) (*dimemas.Trace, error) {
	return traces.FromPhases(a.Ranks, a.Phases(bytes), 1, 0)
}

// WRFApp returns the paper's WRF-256 workload: pairwise ±16
// exchanges on a 16x16 task mesh, one communication phase.
func WRFApp() *App {
	return &App{
		Name:         "WRF-256",
		Ranks:        256,
		DefaultBytes: pattern.DefaultWRFBytes,
		phases: func(bytes int64) []*pattern.Pattern {
			return []*pattern.Pattern{pattern.WRF(16, 16, bytes)}
		},
	}
}

// CGApp returns the paper's CG.D-128 workload: four switch-local
// butterfly phases plus the Eq. (2) transpose, 750 KB messages.
func CGApp() *App {
	return &App{
		Name:         "CG.D-128",
		Ranks:        128,
		DefaultBytes: pattern.DefaultCGPhaseBytes,
		phases: func(bytes int64) []*pattern.Pattern {
			phases, err := pattern.CGPhases(128, bytes)
			if err != nil {
				panic(err) //lint:allow banned unreachable: 128 is a valid rank count
			}
			return phases
		},
	}
}

// AppByName resolves "wrf" or "cg" (case-sensitive short names used
// by the command-line tools).
func AppByName(name string) (*App, error) {
	switch name {
	case "wrf", "WRF-256":
		return WRFApp(), nil
	case "cg", "CG.D-128":
		return CGApp(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown application %q (want wrf or cg)", name)
	}
}

// TrafficNames lists the names the traffic table resolves, for flag
// help.
const TrafficNames = "wrf, cg, cg-transpose, permutation, uniform, bit-reversal, transpose, tornado, alltoall, shift:K"

// Traffic resolves a traffic name on an n-leaf tree through the table
// the sweep grid draws its cells from: TrafficNames, bytes per flow (0
// selects an application's paper size), seed keying the random draws.
func Traffic(name string, n int, bytes int64, seed uint64) ([]*pattern.Pattern, error) {
	return workload{name, bytes, seed}.phases(n)
}

// workload is a cell's traffic: an application ("wrf", "cg" or its App
// name), CG's 128-rank transpose phase ("cg-transpose"), a schedule
// drawn from draw ("permutation", "uniform") or a fixed one
// ("bit-reversal", "transpose", "tornado", "alltoall", "shift:K"). The
// zero workload is the census's.
type workload struct {
	name  string
	bytes int64
	draw  uint64
}

// phases builds the workload on an n-leaf tree; an application keeps
// its own rank count and must fit the tree.
func (w workload) phases(n int) ([]*pattern.Pattern, error) {
	one := func(p *pattern.Pattern) []*pattern.Pattern { return []*pattern.Pattern{p} }
	switch w.name {
	case "permutation":
		return one(pattern.KeyedRandomPermutation(n, w.bytes, w.draw)), nil
	case "uniform":
		return one(pattern.UniformRandom(n, 1, w.bytes, w.draw)), nil
	case "bit-reversal":
		p, err := pattern.BitReversal(n, w.bytes)
		return one(p), err
	case "transpose":
		side := int(math.Sqrt(float64(n)))
		if side*side != n {
			return nil, fmt.Errorf("experiments: transpose needs a square node count, got %d", n)
		}
		return one(pattern.Transpose(side, side, w.bytes)), nil
	case "tornado":
		return one(pattern.Tornado(n, w.bytes)), nil
	case "alltoall":
		return one(pattern.AllToAll(n, w.bytes)), nil
	}
	if k, ok := strings.CutPrefix(w.name, "shift:"); ok {
		d, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad shift distance: %v", err)
		}
		return one(pattern.Shift(n, d, w.bytes)), nil
	}
	name := w.name
	if name == "cg-transpose" {
		name = "cg"
	}
	app, err := AppByName(name)
	if err != nil {
		return nil, fmt.Errorf("experiments: unknown traffic %q (want %s)", w.name, TrafficNames)
	}
	if app.Ranks > n {
		return nil, fmt.Errorf("experiments: %s needs %d leaves, topology has %d", w.name, app.Ranks, n)
	}
	phases := app.Phases(w.bytes)
	if w.name == "cg-transpose" {
		phases = phases[len(phases)-1:]
	}
	return phases, nil
}
