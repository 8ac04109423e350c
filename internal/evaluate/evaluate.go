// Package evaluate is the routing-quality scoring layer: one
// Evaluator interface behind which every way of answering "how good is
// this routing for this traffic?" lives. The paper's central claim is
// comparative — which oblivious scheme wins under which pattern — and
// before this package existed the comparison was hard-wired to the
// analytic congestion bound in four independent places (the fabric
// optimizer, the scheduler's telemetry policy, the experiment sweeps,
// and the fabricd demo). Routing every consumer through an Evaluator
// means a new metric or backend plugs in once and is instantly
// available to all of them.
//
// Three backends are registered:
//
//   - "analytic": the congestion completion bound of
//     internal/contention normalized against the ideal full crossbar
//     (§VI-B) — exact, fast, byte-size independent; what the system
//     steers by.
//   - "grouped": the §IV grouped-contention metric of the authors'
//     ICS'09 line of work — flows serialized at a shared endpoint
//     share channels for free, so a phase's score is the largest
//     number of independently-serialized flow groups meeting on any
//     channel.
//   - "venus": the flit-level event-driven simulator of the paper's
//     methodology (internal/venus), driven end-to-end from the routes
//     and returning measured makespan slowdown against the simulated
//     crossbar.
//
// CachedEvaluator memoizes any backend with singleflight coalescing,
// keyed the way core.TableCache keys tables (topology spec, algorithm
// or route-set identity, pattern fingerprint), so repeated scoring
// across sweeps and re-optimization rounds is free.
package evaluate

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// Result is one evaluation: the figure of merit plus its phase
// decomposition and what the evaluation cost.
type Result struct {
	// Slowdown is the evaluator's figure of merit, normalized so that
	// 1 means "as good as the ideal crossbar" (analytic, venus) or
	// "routed without blocking" (grouped); >= 1 up to floating point
	// for any minimal routing. Lower is better for every backend, so
	// consumers can rank candidates without knowing which backend
	// produced the numbers.
	Slowdown float64
	// PerPhase is each phase's individual score in input order (one
	// entry for the single-pattern forms).
	PerPhase []float64
	// Cost describes what the evaluation spent.
	Cost Cost
}

// Cost describes the work one evaluation performed. Cached results
// report the cost of the original computation.
type Cost struct {
	// Tables counts routing-table constructions requested (cache hits
	// included); zero for explicit-route scoring.
	Tables int
	// SimEvents counts the discrete events the venus backend
	// processed; zero for the analytic backends.
	SimEvents uint64
}

// Evaluator scores routing quality. Implementations must be safe for
// concurrent use and deterministic in their inputs (same topology,
// routes and phases always produce the same Result) — the property
// that keeps parallel sweeps byte-identical and makes caching sound.
type Evaluator interface {
	// Name identifies the backend in reports and flags.
	Name() string
	// Score evaluates an algorithm over a sequence of
	// synchronization-separated phases (each phase starts when the
	// previous one completes, so their times add).
	Score(t *xgft.Topology, algo core.Algorithm, phases []*pattern.Pattern) (Result, error)
	// ScoreRoutes evaluates one phase under an explicit route set
	// aligned with p.Flows — the path for patched tables and installed
	// fabric generations, which no healthy-table cache can serve.
	ScoreRoutes(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route) (Result, error)
}

// Options parameterizes New.
type Options struct {
	// Cache, when a caller that scores the same (algorithm, pattern)
	// again supplies one (a daemon sharing its fabric's), memoizes
	// the routing tables algorithm-based scoring builds. nil — the
	// default, and all a one-shot Score needs — builds the table,
	// scores it and drops it.
	Cache *core.TableCache
	// Venus configures the venus backend; the zero value selects
	// venus.DefaultConfig().
	Venus venus.Config
}

// Backend names, in presentation order.
const (
	Analytic = "analytic"
	Grouped  = "grouped"
	Venus    = "venus"
)

// Names lists the registered backends in presentation order.
func Names() []string { return []string{Analytic, Grouped, Venus} }

// New constructs a registered backend by name. An empty name selects
// the analytic backend, the default everywhere an Evaluator is
// injectable.
func New(name string, opts Options) (Evaluator, error) {
	switch name {
	case "", Analytic:
		return NewAnalytic(opts.Cache), nil
	case Grouped:
		return NewGrouped(opts.Cache), nil
	case Venus:
		return NewVenus(opts.Cache, opts.Venus), nil
	default:
		return nil, fmt.Errorf("evaluate: unknown backend %q (known: %v)", name, Names())
	}
}
