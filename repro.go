// Package repro is the public API of a reproduction of
//
//	G. Rodriguez, C. Minkenberg, R. Beivide, R. P. Luijten,
//	J. Labarta, M. Valero: "Oblivious Routing Schemes in Extended
//	Generalized Fat Tree Networks", IEEE CLUSTER 2009.
//
// It re-exports the stable surface of the implementation packages:
//
//   - XGFT topologies (k-ary n-trees, slimmed trees, the full-crossbar
//     reference) with the paper's Table I label algebra,
//   - the oblivious routing family: S-mod-k, D-mod-k, Random, and the
//     paper's proposals r-NCA-u / r-NCA-d, plus the pattern-aware
//     Colored baseline,
//   - communication patterns (WRF halo exchange, NAS CG phases, and
//     classic synthetics) and their permutation algebra,
//   - contention analysis (endpoint vs. network contention, analytic
//     slowdown bounds) and the event-driven network simulator with the
//     MPI trace replay engine,
//   - the evaluation layer (internal/evaluate): one Evaluator
//     interface behind which the analytic bound, the grouped-contention
//     metric and the venus flit-level simulation are interchangeable
//     scoring backends, with a memoizing CachedEvaluator, consumed by
//     the fabric optimizer, the scheduler and every sweep,
//   - the experiment harnesses that regenerate every table and figure
//     of the paper,
//   - the fabric-manager subsystem: a lock-free all-pairs route store
//     with hot-swappable generations, link/switch-failure handling,
//     incremental table patching, and a telemetry-driven optimizer
//     that re-fits the serving table to the observed traffic
//     (cmd/fabricd is the daemon),
//   - the multi-tenant job scheduler: fragmentation-aware placement
//     of jobs (size + traffic profile) onto the fabric's leaf pool
//     via pluggable policies, with placement-triggered
//     re-optimization over the combined tenant pattern,
//   - the observability layer (internal/obs): a zero-allocation
//     metrics registry and a bounded control-plane event journal,
//     wired through the fabric, the wire server, the scheduler and
//     the cached evaluator, exposed by fabricd and rendered live by
//     cmd/fabrictop.
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
	"repro/internal/evaluate"
	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/traces"
	"repro/internal/venus"
	"repro/internal/xgft"
)

// Topology is an extended generalized fat tree (see internal/xgft).
type Topology = xgft.Topology

// Route is a minimal up/down route through a chosen NCA.
type Route = xgft.Route

// Pattern is a communication pattern (a set of flows).
type Pattern = pattern.Pattern

// Flow is one point-to-point transfer of a pattern.
type Flow = pattern.Flow

// Perm is a (partial) permutation mapping.
type Perm = pattern.Perm

// Algorithm computes static routes for leaf pairs.
type Algorithm = core.Algorithm

// RoutingTable is a pre-computed set of routes for a pattern.
type RoutingTable = core.Table

// ColoredConfig tunes the pattern-aware baseline optimizer.
type ColoredConfig = core.ColoredConfig

// Analysis is a per-channel contention census of a routed pattern.
type Analysis = contention.Analysis

// SimTime is simulated time in nanoseconds.
type SimTime = eventq.Time

// SimConfig carries the network simulator parameters.
type SimConfig = venus.Config

// Message is one end-to-end transfer in the simulator.
type Message = venus.Message

// Sim is the event-driven network simulator.
type Sim = venus.Sim

// Trace is a replayable per-rank MPI operation trace.
type Trace = dimemas.Trace

// ReplayConfig parameterizes a trace replay.
type ReplayConfig = dimemas.Config

// Summary is a boxplot five-number summary.
type Summary = stats.Summary

// App is one of the paper's benchmark applications.
type App = experiments.App

// ExperimentOptions parameterizes figure sweeps: engine, seed count,
// message sizes, the Parallelism of the sweep worker pool, an
// optional Progress callback, and an optional explicit routing-table
// Cache (nil: every cell builds its table and drops it). Parallel
// runs are byte-identical to sequential ones (each sweep cell derives
// its randomness from its own coordinates).
type ExperimentOptions = experiments.Options

// Topology constructors.
var (
	// NewXGFT builds an XGFT(h; m...; w...).
	NewXGFT = xgft.New
	// NewKaryNTree builds a full-bisection k-ary n-tree.
	NewKaryNTree = xgft.NewKaryNTree
	// NewSlimmedTree builds the paper's XGFT(2;m1,m2;1,w2) family.
	NewSlimmedTree = xgft.NewSlimmedTree
	// NewFullCrossbar builds the ideal single-stage reference network.
	NewFullCrossbar = xgft.NewFullCrossbar
)

// FixedTable is an explicit per-pair route map (the forwarding-table
// form a subnet manager installs), serializable to a text format.
type FixedTable = core.FixedTable

// TopologyView is a degraded view of a topology: failed wires and
// switches, and the route-survival queries over them.
type TopologyView = xgft.View

// SwitchID names a switch as (level, index).
type SwitchID = xgft.SwitchID

// PatchStats summarizes one incremental table-patch pass.
type PatchStats = core.PatchStats

// Fabric is the subnet-manager subsystem: a lock-free all-pairs route
// store with hot-swappable generations and link/switch failure
// handling (see internal/fabric and cmd/fabricd).
type Fabric = fabric.Fabric

// FabricConfig parameterizes NewFabric.
type FabricConfig = fabric.Config

// FabricStats describes one generation of a fabric's route store.
type FabricStats = fabric.Stats

// FabricGeneration is one immutable epoch of a fabric's route store.
type FabricGeneration = fabric.Generation

// FabricTelemetry is the fabric's per-pair flow counters (enabled by
// FabricConfig.Telemetry): lock-free observation of the traffic the
// fabric actually serves, snapshot-able into a Pattern.
type FabricTelemetry = fabric.Telemetry

// OptimizeConfig parameterizes one telemetry-driven re-optimization
// pass of a fabric (threshold, minimum signal, candidate seed).
type OptimizeConfig = fabric.OptimizeConfig

// OptimizeResult describes one re-optimization pass: the observed
// pattern, every candidate's analytic slowdown, and the swap outcome.
type OptimizeResult = fabric.OptimizeResult

// Scheduler is the multi-tenant job scheduler: it owns a fabric's
// leaf pool and places jobs via pluggable policies (see
// internal/sched and the fabricd job endpoints).
type Scheduler = sched.Scheduler

// SchedulerConfig parameterizes NewScheduler.
type SchedulerConfig = sched.Config

// JobSpec describes a job submission: a size plus a traffic profile.
type JobSpec = sched.JobSpec

// Job is a placed job (allocation, rank -> leaf mapping, remapped
// traffic).
type Job = sched.Job

// SchedulerSnapshot is the scheduler's pool census: active jobs plus
// free-block fragmentation figures.
type SchedulerSnapshot = sched.Snapshot

// PlacementPolicy chooses leaves for a job.
type PlacementPolicy = sched.Policy

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
	// AutoModK picks S-mod-k or D-mod-k from the pattern's asymmetry
	// (the paper's §VII-C heuristic).
	AutoModK = core.AutoModK
	// NewFixedTable builds an empty explicit route table.
	NewFixedTable = core.NewFixedTable
	// SnapshotRoutes freezes an algorithm's routes for given pairs.
	SnapshotRoutes = core.Snapshot
	// ReadRoutingTable parses a serialized fixed table.
	ReadRoutingTable = core.ReadTable
	// NewUnbalancedNCAUp / Down are the ablation variants of the
	// relabeling family (uniform instead of balanced maps).
	NewUnbalancedNCAUp   = core.NewUnbalancedNCAUp
	NewUnbalancedNCADown = core.NewUnbalancedNCADown
	// NewLevelWise is the optimal permutation scheduler of the
	// paper's ref. [15] (Ding et al.), built on König edge coloring.
	NewLevelWise = core.NewLevelWise
	// CompileLFT compiles a destination-based scheme into per-switch
	// forwarding tables (InfiniBand LFT form); IsDestinationBased
	// tests whether a scheme admits them.
	CompileLFT         = core.CompileLFT
	IsDestinationBased = core.IsDestinationBased
	// ColorBipartite / ColorBipartiteBalanced expose the coloring
	// engine for custom schedulers.
	ColorBipartite         = core.ColorBipartite
	ColorBipartiteBalanced = core.ColorBipartiteBalanced
)

// Fault handling: degraded topology views, incremental table
// patching, and the fabric-manager subsystem built on them.
var (
	// NewTopologyView returns a healthy fault overlay for a topology;
	// FailWire/FailLink/FailSwitch degrade it.
	NewTopologyView = xgft.NewView
	// RerouteAvoiding finds a minimal route around a view's failures.
	RerouteAvoiding = core.RerouteAvoiding
	// PatchRoutingTable reroutes exactly the routes of a table that
	// traverse a failed element.
	PatchRoutingTable = core.PatchTable
	// NewFabric compiles a scheme into a serving fabric (generation 0).
	NewFabric = fabric.New
)

// Multi-tenant scheduling: placement policies over the fabric's leaf
// pool, allocation-aware pattern remapping, and the churn sweep.
var (
	// NewScheduler builds a scheduler owning a fabric's leaf pool.
	NewScheduler = sched.New
	// LinearPlacement, RandomPlacement, BalancedPlacement and
	// TelemetryPlacement construct the placement policies.
	LinearPlacement    = sched.Linear
	RandomPlacement    = sched.Random
	BalancedPlacement  = sched.Balanced
	TelemetryPlacement = sched.Telemetry
	// PlacementPolicyByName resolves a policy by its command-line
	// name; PlacementPolicyNames lists them.
	PlacementPolicyByName = sched.PolicyByName
	PlacementPolicyNames  = sched.PolicyNames
	// RemapPattern lifts a rank-space pattern onto a placement.
	RemapPattern = sched.RemapPattern
	// MappingFromLeaves places rank r on leaves[r] (the replay-side
	// counterpart of a scheduler allocation).
	MappingFromLeaves = dimemas.MappingFromLeaves
)

// MetricsRegistry is the zero-allocation metrics registry every
// serving layer records into (FabricConfig.Metrics,
// SchedulerConfig.Metrics, wire.Server.Metrics); WritePrometheus
// renders the text exposition format.
type MetricsRegistry = obs.Registry

// EventJournal is the bounded control-plane event ring
// (FabricConfig.Journal, SchedulerConfig.Journal): generation swaps,
// optimize decisions, job lifecycle.
type EventJournal = obs.Journal

// ControlEvent is one journaled control-plane event.
type ControlEvent = obs.Event

// Observability constructors (see internal/obs and cmd/fabrictop).
var (
	// NewMetricsRegistry builds an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewEventJournal builds a bounded event journal; the optional
	// slog logger mirrors every event to the log stream.
	NewEventJournal = obs.NewJournal
)

// Pattern constructors.
var (
	// NewPattern returns an empty pattern over n endpoints.
	NewPattern = pattern.New
	// WRF builds the WRF halo exchange on a rows x cols mesh.
	WRF = pattern.WRF
	// WRF256 is the paper's WRF-256 instance.
	WRF256 = pattern.WRF256
	// CGPhases builds the NAS CG phase sequence.
	CGPhases = pattern.CGPhases
	// CGD128Phases is the paper's CG.D-128 instance.
	CGD128Phases = pattern.CGD128Phases
	// Shift, Transpose, BitReversal, Tornado, AllToAll, UniformRandom
	// are classic synthetic patterns.
	Shift         = pattern.Shift
	Transpose     = pattern.Transpose
	BitReversal   = pattern.BitReversal
	Tornado       = pattern.Tornado
	AllToAll      = pattern.AllToAll
	UniformRandom = pattern.UniformRandom
	// KeyedPerm / KeyedRandomPermutation draw seed-reproducible
	// permutations from the keyed splitmix64 stream (no rand.Rand).
	KeyedPerm              = pattern.KeyedPerm
	KeyedRandomPermutation = pattern.KeyedRandomPermutation
)

// Evaluator is the routing-quality scoring interface: Score ranks an
// algorithm over phases, ScoreRoutes an explicit route set, under any
// registered backend (see internal/evaluate).
type Evaluator = evaluate.Evaluator

// EvaluatorOptions parameterizes NewEvaluator (table cache, venus
// simulator configuration).
type EvaluatorOptions = evaluate.Options

// EvalResult is one evaluation: the slowdown figure of merit, its
// per-phase decomposition, and what the evaluation cost.
type EvalResult = evaluate.Result

// CachedEvaluator memoizes a backend with singleflight coalescing,
// keyed by (topology spec, algorithm/route identity, pattern content).
type CachedEvaluator = evaluate.CachedEvaluator

// The evaluation layer: pluggable routing-quality scoring backends.
var (
	// NewEvaluator constructs a backend by name ("analytic",
	// "grouped", "venus"; empty selects analytic).
	NewEvaluator = evaluate.New
	// EvaluatorNames lists the registered backends.
	EvaluatorNames = evaluate.Names
	// NewAnalyticEvaluator, NewGroupedEvaluator and NewVenusEvaluator
	// construct the backends directly.
	NewAnalyticEvaluator = evaluate.NewAnalytic
	NewGroupedEvaluator  = evaluate.NewGrouped
	NewVenusEvaluator    = evaluate.NewVenus
	// NewCachedEvaluator wraps a backend with memoization.
	NewCachedEvaluator = evaluate.NewCached
)

// Contention analysis.
var (
	// AnalyzeContention computes the per-channel census of a routed
	// pattern.
	AnalyzeContention = contention.Analyze
	// AnalyticSlowdown is the congestion-bound slowdown of one phase;
	// phased, cached and explicit-route scoring go through
	// NewAnalyticEvaluator.
	AnalyticSlowdown = contention.Slowdown
	// NCAHistogram counts routes per NCA (Fig. 4 view).
	NCAHistogram = contention.NCAHistogram
	// VerifyDeadlockFree certifies a route set's channel dependency
	// graph is acyclic (§V minimal deadlock-free paths).
	VerifyDeadlockFree = contention.VerifyDeadlockFree
)

// Adaptive routing (per-segment least-backlog port selection, the
// comparison point of the adaptive-vs-oblivious literature the paper
// cites).
var (
	SimulatePatternAdaptive        = venus.RunPatternAdaptive
	MeasuredPhasedSlowdownAdaptive = venus.MeasuredPhasedSlowdownAdaptive
)

// Simulation and replay.
var (
	// DefaultSimConfig returns the paper's network parameters.
	DefaultSimConfig = venus.DefaultConfig
	// NewSim builds a network simulator instance.
	NewSim = venus.New
	// SimulatePattern runs a pattern to completion on a topology.
	SimulatePattern = venus.RunPattern
	// MeasuredSlowdown is the simulated slowdown of one phase.
	MeasuredSlowdown = venus.MeasuredSlowdown
	// MeasuredPhasedSlowdown sums dependent phases.
	MeasuredPhasedSlowdown = venus.MeasuredPhasedSlowdown
	// ReplayTrace replays an MPI trace over the simulator.
	ReplayTrace = dimemas.Replay
	// ReplaySlowdown is the application-level simulated slowdown.
	ReplaySlowdown = dimemas.MeasuredSlowdown
	// WRFTrace and CGTrace generate the synthetic application traces.
	WRFTrace = traces.WRF
	CGTrace  = traces.CG
	// TraceFromPhases lowers communication phases into a trace.
	TraceFromPhases = traces.FromPhases
	// WriteTrace / ReadTrace (de)serialize traces (JSON lines).
	WriteTrace = dimemas.WriteTrace
	ReadTrace  = dimemas.ReadTrace
	// Rank placement strategies for replays.
	LinearMapping     = dimemas.LinearMapping
	RoundRobinMapping = dimemas.RoundRobinMapping
	RandomMapping     = dimemas.RandomMapping
)

// Experiments (figure/table regeneration).
var (
	// WRFApp and CGApp are the paper's two workloads.
	WRFApp = experiments.WRFApp
	CGApp  = experiments.CGApp
	// Figure2, Figure3, Figure4, Figure5 and Table1 regenerate the
	// corresponding paper artifacts.
	Figure2 = experiments.Figure2
	Figure3 = experiments.Figure3
	Figure4 = experiments.Figure4
	Figure5 = experiments.Figure5
	Table1  = experiments.Table1
	// DeepTreeSweep, BalanceAblation, FaultSweep, ShiftSweep,
	// PlacementSweep and FidelitySweep are the extension studies
	// (three-level XGFT generalization, balanced-map ablation,
	// degraded-topology robustness, the shifting-traffic comparison of
	// static d-mod-k against the telemetry-driven re-optimizing
	// fabric, the multi-tenant placement churn comparison of scheduler
	// policies, and the analytic-vs-venus fidelity check of the bound
	// the whole system steers by).
	DeepTreeSweep   = experiments.DeepTreeSweep
	BalanceAblation = experiments.BalanceAblation
	FaultSweep      = experiments.FaultSweep
	ShiftSweep      = experiments.ShiftSweep
	PlacementSweep  = experiments.PlacementSweep
	FidelitySweep   = experiments.FidelitySweep
	// Summarize computes boxplot statistics.
	Summarize = stats.Summarize
)

// Engine names for ExperimentOptions.
const (
	// EngineAnalytic selects the fast congestion-bound model.
	EngineAnalytic = experiments.Analytic
	// EngineSimulated selects the full replay + simulation pipeline.
	EngineSimulated = experiments.Simulated
)
