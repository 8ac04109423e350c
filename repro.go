// Package repro is the public API of a reproduction of
//
//	G. Rodriguez, C. Minkenberg, R. Beivide, R. P. Luijten,
//	J. Labarta, M. Valero: "Oblivious Routing Schemes in Extended
//	Generalized Fat Tree Networks", IEEE CLUSTER 2009.
//
// It re-exports the names the examples, the godoc examples and the
// README use; the binaries under cmd/ reach the implementation
// packages directly. The surface is:
//
//   - XGFT topologies: k-ary n-trees and the paper's slimmed trees,
//   - the oblivious routing family: S-mod-k, D-mod-k, Random, and the
//     paper's proposals r-NCA-u / r-NCA-d, plus the pattern-aware
//     Colored baseline, with routing tables built, snapshotted and
//     parsed,
//   - communication patterns: the WRF halo exchange, the NAS CG
//     phases, and the Shift and uniform-random synthetics,
//   - contention analysis and the analytic slowdown bound, the
//     event-driven network simulator's measured slowdowns, and the
//     MPI trace lowering, serialization and replay,
//   - the Fig. 2 experiment harness and its boxplot summary,
//   - the fabric manager (cmd/fabricd is the daemon): a lock-free
//     all-pairs route store with hot-swappable generations and a
//     telemetry-driven optimizer, and the multi-tenant job scheduler
//     that places jobs onto its leaf pool.
//
// Quick start:
//
//	tree, _ := repro.NewSlimmedTree(16, 16, 10)
//	algo := repro.NewRandomNCAUp(tree, 42)
//	slow, _ := repro.AnalyticSlowdown(tree, algo, repro.WRF256())
package repro

import (
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/traces"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// Pattern is a communication pattern (a set of flows).
type Pattern = pattern.Pattern

// Algorithm computes static routes for leaf pairs.
type Algorithm = core.Algorithm

// ColoredConfig tunes the pattern-aware baseline optimizer.
type ColoredConfig = core.ColoredConfig

// ReplayConfig parameterizes a trace replay.
type ReplayConfig = dimemas.Config

// ExperimentOptions parameterizes figure sweeps: engine, seed count,
// message sizes, the Parallelism of the sweep worker pool, an
// optional Progress callback, and an optional explicit routing-table
// Cache (nil: every cell builds its table and drops it). Parallel
// runs are byte-identical to sequential ones (each sweep cell derives
// its randomness from its own coordinates).
type ExperimentOptions = experiments.Options

// Topology constructors.
var (
	// NewKaryNTree builds a full-bisection k-ary n-tree.
	NewKaryNTree = xgft.NewKaryNTree
	// NewSlimmedTree builds the paper's XGFT(2;m1,m2;1,w2) family.
	NewSlimmedTree = xgft.NewSlimmedTree
)

// Routing algorithm constructors.
var (
	// NewSModK is the classic source-mod-k self-routing scheme.
	NewSModK = core.NewSModK
	// NewDModK is the destination-mod-k scheme.
	NewDModK = core.NewDModK
	// NewRandom assigns every pair an independent uniform NCA.
	NewRandom = core.NewRandom
	// NewRandomNCAUp is the paper's proposal r-NCA-u.
	NewRandomNCAUp = core.NewRandomNCAUp
	// NewRandomNCADown is the paper's proposal r-NCA-d.
	NewRandomNCADown = core.NewRandomNCADown
	// NewColored is the pattern-aware baseline.
	NewColored = core.NewColored
	// NewAlgorithmByName resolves an algorithm by its paper name.
	NewAlgorithmByName = core.NewByName
	// AlgorithmNames lists the selectable schemes.
	AlgorithmNames = core.AlgorithmNames
	// BuildRoutingTable computes and validates routes for a pattern.
	BuildRoutingTable = core.BuildTable
	// SnapshotRoutes freezes an algorithm's routes for given pairs.
	SnapshotRoutes = core.Snapshot
	// ReadRoutingTable parses a serialized fixed table: the topology
	// header first, then each pair at most once.
	ReadRoutingTable = core.ReadTable
)

// FabricConfig parameterizes NewFabric.
type FabricConfig = fabric.Config

// OptimizeConfig parameterizes one telemetry-driven re-optimization
// pass of a fabric (threshold, minimum signal, candidate seed).
type OptimizeConfig = fabric.OptimizeConfig

// SchedulerConfig parameterizes NewScheduler.
type SchedulerConfig = sched.Config

// JobSpec describes a job submission: a size plus a traffic profile.
type JobSpec = sched.JobSpec

// The fabric manager and the multi-tenant job scheduler.
var (
	// NewFabric compiles a scheme into a serving fabric (generation 0).
	NewFabric = fabric.New
	// NewScheduler builds a scheduler owning a fabric's leaf pool.
	NewScheduler = sched.New
	// BalancedPlacement spreads jobs across the top-level subtrees.
	BalancedPlacement = sched.Balanced
)

// Pattern constructors.
var (
	// WRF builds the WRF halo exchange on a rows x cols mesh.
	WRF = pattern.WRF
	// WRF256 is the paper's WRF-256 instance.
	WRF256 = pattern.WRF256
	// CGPhases builds the NAS CG phase sequence.
	CGPhases = pattern.CGPhases
	// CGD128Phases is the paper's CG.D-128 instance.
	CGD128Phases = pattern.CGD128Phases
	// Shift and UniformRandom are classic synthetic patterns.
	Shift         = pattern.Shift
	UniformRandom = pattern.UniformRandom
)

// Contention analysis.
var (
	// AnalyzeContention computes the per-channel census of a routed
	// pattern.
	AnalyzeContention = contention.Analyze
	// AnalyticSlowdown is the congestion-bound slowdown of one phase.
	AnalyticSlowdown = contention.Slowdown
)

// Simulation and replay.
var (
	// DefaultSimConfig returns the paper's network parameters.
	DefaultSimConfig = venus.DefaultConfig
	// MeasuredSlowdown is the simulated slowdown of one phase.
	MeasuredSlowdown = venus.MeasuredSlowdown
	// MeasuredPhasedSlowdown sums dependent phases.
	MeasuredPhasedSlowdown = venus.MeasuredPhasedSlowdown
	// ReplayTrace replays an MPI trace over the simulator.
	ReplayTrace = dimemas.Replay
	// ReplaySlowdown is the application-level simulated slowdown.
	ReplaySlowdown = dimemas.MeasuredSlowdown
	// TraceFromPhases lowers communication phases into a trace.
	TraceFromPhases = traces.FromPhases
	// WriteTrace / ReadTrace (de)serialize traces (JSON lines).
	WriteTrace = dimemas.WriteTrace
	ReadTrace  = dimemas.ReadTrace
)

// Experiments (figure regeneration).
var (
	// CGApp is the paper's CG.D-128 workload.
	CGApp = experiments.CGApp
	// Figure2 regenerates the paper's Fig. 2 slimming sweep.
	Figure2 = experiments.Figure2
	// Summarize computes boxplot statistics.
	Summarize = stats.Summarize
)

// EngineAnalytic selects the fast congestion-bound model for
// ExperimentOptions.Engine.
const EngineAnalytic = experiments.Analytic
