package bench

// The benchmark's fixed vocabulary: workload names, metric names,
// units, directions and bounds. Later performance and simplicity
// issues refer to these names; BENCHMARK.json at the repository root
// lists the same names and TestBenchmarkJSONMatchesCatalog keeps the
// two from drifting.

// Workload names.
const (
	ResolveBulk  = "resolve_bulk"
	ResolveSmall = "resolve_small"
	ChurnMixed   = "churn_mixed"
	ReproSweep   = "repro_sweep"
)

// WorkloadInfo names a workload and records why it exists.
type WorkloadInfo struct {
	Name string
	Why  string
}

// Workloads lists the four workloads in run order.
var Workloads = []WorkloadInfo{
	{ResolveBulk, "4096-pair batches over the whole table on one connection: per-pair work (decode, lookup, telemetry) is nearly all of the daemon's service time"},
	{ResolveSmall, "pipelined bursts of 64 16-pair frames over a few hot rows: per-frame cost (header, syscalls, response write) dominates, per-pair cost is a few percent"},
	{ChurnMixed, "control cycles (feed, optimize, fail-link, heal, submit, release) beside an open-loop probe stream on the slimmed tree: writes next to reads"},
	{ReproSweep, "the paper's figure set through the experiments CLI, analytic and simulated, no daemon: exercises table build, census and simulators, none of the serving path"},
}

// Move says which end-to-end metric, on which workload, a layer metric
// is expected to move when it improves.
type Move struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// Metric is one catalog entry.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the baseline median by which the metric may
	// worsen before it counts as a regression, and by which two
	// interleaved sets of the same code may differ under perfreport -aa;
	// 0 means ungated (layer metrics, and failed_ops_ratio whose bound
	// is zero absolute).
	Bound float64
	// DriverBound is the bound BENCHMARK.json carries. It is set on the
	// universal end-to-end metrics, the ones defined on every workload:
	// BENCHMARK.json lists them under end_to_end and a --trace 0 run
	// prints them; every other metric is printed by --trace 1. The
	// driver compares single-workload runs made minutes apart, which on
	// a drifting VM spread wider than two interleaved sets do, so its
	// bound is looser than Bound.
	DriverBound float64
	// Workloads lists the workloads the metric is measured on; empty
	// means all four. A metric reads 0 on a workload that does not
	// exercise it.
	Workloads []string
	// Unheld maps a workload on which two interleaved sets of the same
	// code could not hold Bound on the 2-vCPU box to the differences
	// measured. perfreport -aa reports the metric there without gating
	// it: a metric that cannot hold its bound is demoted with its spread
	// recorded, not given a wider bound.
	Unheld map[string]string
	// Moves lists, for a layer metric, the end-to-end metrics it should
	// move; everything not listed is predicted not to change.
	Moves []Move
	// Doc is the one-line definition.
	Doc string
}

var (
	resolveWL = []string{ResolveBulk, ResolveSmall}
	daemonWL  = []string{ResolveBulk, ResolveSmall, ChurnMixed}
	churnWL   = []string{ChurnMixed}
	reproWL   = []string{ReproSweep}
	bulkWL    = []string{ResolveBulk}
)

func moves(pairs ...string) []Move {
	var out []Move
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, Move{Metric: pairs[i], Workload: pairs[i+1]})
	}
	return out
}

var (
	movesBulk      = moves("pairs_per_s", ResolveBulk, "server_cpu_us_per_kpair", ResolveBulk, "units_per_s", ResolveBulk, "cpu_ms_per_unit", ResolveBulk)
	movesSmall     = moves("pairs_per_s", ResolveSmall, "rtt_p50_us", ResolveSmall, "units_per_s", ResolveSmall, "unit_p50_ms", ResolveSmall)
	movesScrape    = moves("rtt_p50_us", ResolveBulk, "server_cpu_us_per_kpair", ResolveBulk, "rtt_p50_us", ResolveSmall, "server_cpu_us_per_kpair", ResolveSmall, "rtt_p50_us", ChurnMixed)
	movesSetup     = moves("setup_s", ResolveBulk, "setup_s", ResolveSmall, "setup_s", ChurnMixed)
	movesChurnOps  = moves("faillink_p50_ms", ChurnMixed, "heal_p50_ms", ChurnMixed, "optimize_p50_ms", ChurnMixed, "unit_p50_ms", ChurnMixed)
	movesOptimize  = moves("optimize_p50_ms", ChurnMixed, "faillink_p50_ms", ChurnMixed, "unit_p50_ms", ChurnMixed)
	movesCore      = moves("optimize_p50_ms", ChurnMixed, "faillink_p50_ms", ChurnMixed, "sweep_s", ReproSweep, "setup_s", ResolveBulk, "setup_s", ResolveSmall, "setup_s", ChurnMixed)
	movesContend   = moves("sweep_s", ReproSweep, "optimize_p50_ms", ChurnMixed, "faillink_p50_ms", ChurnMixed)
	movesEvaluate  = moves("optimize_p50_ms", ChurnMixed, "submit_p50_ms", ChurnMixed)
	movesSched     = moves("submit_p50_ms", ChurnMixed, "unit_p50_ms", ChurnMixed)
	movesSweep     = moves("sweep_s", ReproSweep, "unit_p50_ms", ReproSweep)
	movesSimulated = moves("sim_sweep_s", ReproSweep, "unit_p50_ms", ReproSweep)
)

// Catalog lists every metric: the universal end-to-end metrics first,
// then the per-workload end-to-end metrics, then the layer metrics by
// module. The order is the order of BENCHMARK.json and of the report.
var Catalog = []Metric{
	// Universal end-to-end metrics. A workload's unit of work is: one
	// 4096-pair batch (resolve_bulk), one 64-frame burst
	// (resolve_small), one control cycle (churn_mixed), one round of
	// the two sweep processes (repro_sweep).
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15, DriverBound: 0.25,
		Doc: "exec of the program under test to its first verified output: daemon start to first verified probe batch; repro_sweep: wall time of experiments -table1"},
	{Name: "unit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, DriverBound: 0.25,
		Doc: "median client-observed completion time of one unit of work in closed loop: batch (bulk), burst (small), control cycle with every operation awaited to its new generation (churn), analytic + simulated sweep (repro)"},
	{Name: "units_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, DriverBound: 0.25,
		Doc: "units of work completed per second in closed loop (one outstanding unit)"},
	{Name: "cpu_ms_per_unit", Unit: "ms", Better: "lower", Bound: 0.10, DriverBound: 0.25,
		Doc: "user+system CPU time of the program under test per unit of work, closed loop"},
	// A 21 MB Go process's high-water mark moves by a couple of MB with
	// the moment the collector first runs.
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, DriverBound: 0.25,
		Unheld: map[string]string{ResolveSmall: "10.1 % (20.8 vs 22.9 MB) in one of eight quiet A/A runs"},
		Doc:    "peak resident set of the program under test at workload end (daemon VmHWM; CLI Maxrss)"},

	// Per-workload end-to-end metrics: client-observed, but defined on
	// some workloads only, so BENCHMARK.json carries them without a
	// bound; perfreport -aa still holds them to the bounds below.
	{Name: "pairs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Workloads: resolveWL,
		Doc: "route pairs resolved per second, closed-loop phase"},
	// On churn_mixed the probe stream offers 200 batches/s, so the daemon
	// idles between probes and the reading carries the VM's wake-up path.
	{Name: "rtt_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Workloads: daemonWL,
		Unheld: map[string]string{ChurnMixed: "10.4 %, 12.1 %, 13.3 %, 17.0 % in four of eight quiet A/A runs"},
		Doc:    "median client completion time of one data-plane unit: batch from due time at 2000/s (bulk), 64-frame burst (small), probe batch from due time (churn)"},
	{Name: "server_cpu_us_per_kpair", Unit: "us", Better: "lower", Bound: 0.10, Workloads: resolveWL,
		Doc: "daemon user+system CPU per 1000 pairs resolved, closed-loop phase"},
	{Name: "optimize_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: churnWL,
		Doc: "POST /optimize to the first probe answering with the generation the pass reported"},
	{Name: "faillink_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: churnWL,
		Doc: "POST /fail-link to the first probe answering with the new generation"},
	{Name: "heal_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: churnWL,
		Doc: "POST /heal to the first probe answering with the new generation"},
	// A round's submits mix three job sizes and three applications, so
	// its median sits between modes (16-30 ms from round to round) and
	// the median over rounds lands on either side of a gap.
	{Name: "submit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: churnWL,
		Unheld: map[string]string{ChurnMixed: "10.6 %, 13.3 %, 55 % (20.2 vs 31.3 ms) in three of eight quiet A/A runs"},
		Doc:    "POST /jobs round trip including its threshold-gated re-optimize"},
	// The -parallel 2 process on 2 vCPUs is bimodal (3.1 or 3.6 s), so
	// the median over rounds lands on either mode; unit_p50_ms, the sum
	// with the simulated slice, held (6.4 % in the same run).
	{Name: "sweep_s", Unit: "s", Better: "lower", Bound: 0.10, Workloads: reproWL,
		Unheld: map[string]string{ReproSweep: "12.6 % (3.20 vs 3.61 s) in one of eight quiet A/A runs"},
		Doc:    "wall time of the analytic figure-set process"},
	{Name: "sim_sweep_s", Unit: "s", Better: "lower", Bound: 0.10, Workloads: reproWL,
		Doc: "wall time of the simulated (venus/dimemas) slice process"},
	{Name: "failed_ops_ratio", Unit: "ratio", Better: "lower",
		Doc: "failed / attempted operations (error frame, timeout, refused, HTTP >= 400, verification mismatch); must be 0"},

	// client: the harness's own view of the measured phases.
	{Name: "client.rtt_p90_us", Unit: "us", Better: "lower", Workloads: daemonWL, Doc: "p90 of the rtt_p50_us distribution (median of windows)"},
	{Name: "client.rtt_p99_us", Unit: "us", Better: "lower", Workloads: daemonWL, Doc: "p99, median of windows"},
	{Name: "client.rtt_p999_us", Unit: "us", Better: "lower", Workloads: daemonWL, Doc: "p99.9 over all samples of the run (too few per window)"},
	{Name: "client.gen_lag_p99_us", Unit: "us", Better: "lower", Workloads: []string{ResolveBulk, ChurnMixed}, Doc: "p99 of how late after its due time the open-loop generator wrote a request"},
	{Name: "client.slo_miss_ratio.r1000", Unit: "ratio", Better: "lower", Workloads: bulkWL, Doc: "share of batches over 2 ms from due time at 1000 batches/s; failures count as misses"},
	{Name: "client.slo_miss_ratio.r2000", Unit: "ratio", Better: "lower", Workloads: bulkWL, Doc: "same at 2000 batches/s"},
	{Name: "client.slo_miss_ratio.r3000", Unit: "ratio", Better: "lower", Workloads: bulkWL, Doc: "same at 3000 batches/s"},
	{Name: "client.slo_miss_ratio.r4000", Unit: "ratio", Better: "lower", Workloads: bulkWL, Doc: "same at 4000 batches/s"},
	{Name: "client.max_rate_ok", Unit: "1/s", Better: "higher", Workloads: bulkWL, Doc: "highest offered rate with p99 <= 2 ms and no backlog at phase end"},
	{Name: "client.backlog_end", Unit: "count", Better: "lower", Workloads: []string{ResolveBulk, ChurnMixed}, Doc: "requests due but unsent when the open-loop phases ended, summed"},
	{Name: "client.contaminated_windows", Unit: "count", Better: "lower", Workloads: daemonWL, Doc: "windows whose p50 read more than 3x the median of the window values, summed"},
	{Name: "client.stale_generation_count", Unit: "count", Better: "lower", Workloads: daemonWL, Doc: "times a connection saw the generation go backwards; must be 0"},

	// daemon: scraped from the running fabricd around each phase.
	{Name: "daemon.service_us", Unit: "us", Better: "lower", Workloads: daemonWL, Moves: movesScrape, Doc: "delta wire_request_ns_sum / delta _count over the rtt_p50_us phase"},
	{Name: "daemon.service_closed_us", Unit: "us", Better: "lower", Workloads: resolveWL, Moves: movesScrape, Doc: "delta wire_request_ns_sum / delta _count over the traced closed loop: the hot daemon's service time per frame, the trailer's total plus the response write"},
	{Name: "daemon.lookup_us", Unit: "us", Better: "lower", Workloads: daemonWL, Moves: movesScrape, Doc: "delta fabric_resolve_batch_packed_ns_sum / delta _count over the same phase"},
	{Name: "daemon.decode_us", Unit: "us", Better: "lower", Workloads: resolveWL, Moves: movesScrape, Doc: "median request-decode time from the wire-v2 timing trailer, traced closed loop"},
	{Name: "daemon.resolve_us", Unit: "us", Better: "lower", Workloads: resolveWL, Moves: movesScrape, Doc: "median resolve time from the trailer"},
	{Name: "daemon.encode_us", Unit: "us", Better: "lower", Workloads: resolveWL, Moves: movesScrape, Doc: "median response-encode time from the trailer"},
	{Name: "daemon.optimize_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesOptimize, Doc: "median dur_ns of the optimize journal events"},
	{Name: "daemon.swap_build_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesChurnOps, Doc: "median dur_ns of the generation.swap journal events"},
	{Name: "daemon.place_us", Unit: "us", Better: "lower", Workloads: churnWL, Moves: movesSched, Doc: "delta sched_place_ns_sum / delta _count"},
	{Name: "transport.residual_us", Unit: "us", Better: "lower", Workloads: daemonWL, Moves: movesScrape, Doc: "rtt_p50_us - daemon.service_us: syscalls, loopback, queueing, client codec"},

	// wire: in-process replay of the workload's own batches.
	{Name: "wire.encode_request_ns_per_pair", Unit: "ns", Better: "lower", Workloads: daemonWL, Moves: movesBulk, Doc: "AppendResolveRequest per pair"},
	{Name: "wire.decode_request_ns_per_pair", Unit: "ns", Better: "lower", Workloads: daemonWL, Moves: movesBulk, Doc: "DecodeResolveRequest per pair"},
	{Name: "wire.encode_response_ns_per_pair", Unit: "ns", Better: "lower", Workloads: daemonWL, Moves: movesBulk, Doc: "AppendResolveResponse per pair"},
	{Name: "wire.decode_response_ns_per_pair", Unit: "ns", Better: "lower", Workloads: daemonWL, Moves: movesBulk, Doc: "DecodeResolveResponse per pair"},
	{Name: "wire.frame_ns", Unit: "ns", Better: "lower", Workloads: daemonWL, Moves: movesSmall, Doc: "header build + FrameReader.Read of one 16-pair frame from memory"},
	{Name: "wire.loopback_rtt_us", Unit: "us", Better: "lower", Workloads: daemonWL, Moves: movesSmall, Doc: "median round trip of the workload's unit through an in-process wire.Server over TCP: the RTT without the process boundary"},
	{Name: "wire.allocs_per_batch", Unit: "count", Better: "lower", Workloads: daemonWL, Moves: movesSmall, Doc: "heap allocations per unit across the in-process client and server"},

	// fabric
	{Name: "fabric.lookup_ns_per_pair", Unit: "ns", Better: "lower", Workloads: daemonWL, Moves: movesBulk, Doc: "ResolveBatchPacked per pair, telemetry and metrics off"},
	{Name: "fabric.telemetry_ns_per_pair", Unit: "ns", Better: "lower", Workloads: daemonWL, Moves: movesBulk, Doc: "the same with telemetry on, minus the bare lookup"},
	{Name: "fabric.metrics_ns_per_batch", Unit: "ns", Better: "lower", Workloads: daemonWL, Moves: movesBulk, Doc: "the same with a metrics registry, minus the telemetry-only batch"},
	{Name: "fabric.allocs_per_batch", Unit: "count", Better: "lower", Workloads: daemonWL, Moves: movesBulk, Doc: "heap allocations per observed ResolveBatchPacked"},
	{Name: "fabric.new_ms", Unit: "ms", Better: "lower", Workloads: daemonWL, Moves: movesSetup, Doc: "fabric.New: table build, verification, packing"},
	{Name: "fabric.faillink_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesChurnOps, Doc: "median FailLink"},
	{Name: "fabric.heal_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesChurnOps, Doc: "median Heal"},
	{Name: "fabric.optimize_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesOptimize, Doc: "median Optimize"},
	{Name: "fabric.optimize_self_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesOptimize, Doc: "Optimize minus its replayed children (snapshot, colored build, table builds, load state, scoring, materialization)"},
	{Name: "fabric.routes_materialize_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesChurnOps, Doc: "median Generation.Routes"},
	{Name: "fabric.snapshot_flows_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesOptimize, Doc: "median SnapshotFlows"},

	// core
	{Name: "core.build_table_ms", Unit: "ms", Better: "lower", Moves: movesCore, Doc: "median core.BuildTable of the workload's table (all pairs for the daemons, a figure cell for the sweep)"},
	{Name: "core.colored_build_ms", Unit: "ms", Better: "lower", Workloads: []string{ChurnMixed, ReproSweep}, Moves: movesCore, Doc: "median core.NewColored on the observed pattern"},
	{Name: "core.patch_table_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesCore, Doc: "median core.PatchTable for the cycle's failed link"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: movesCore, Doc: "table-cache hits / lookups across the replay"},

	// contention
	{Name: "contention.analyze_ms", Unit: "ms", Better: "lower", Workloads: []string{ChurnMixed, ReproSweep}, Moves: movesContend, Doc: "median contention.Analyze"},
	{Name: "contention.verify_deadlock_ms", Unit: "ms", Better: "lower", Workloads: daemonWL, Moves: movesContend, Doc: "median VerifyDeadlockFree of the all-pairs table"},

	// evaluate
	{Name: "evaluate.loadstate_build_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesEvaluate, Doc: "median NewLoadState on the observed pattern"},
	{Name: "evaluate.route_delta_us", Unit: "us", Better: "lower", Workloads: churnWL, Moves: movesEvaluate, Doc: "median ApplyRouteDelta of one candidate's route differences"},
	{Name: "evaluate.score_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesEvaluate, Doc: "median Evaluator.ScoreRoutes on the observed pattern"},

	// sched
	{Name: "sched.submit_ms", Unit: "ms", Better: "lower", Workloads: churnWL, Moves: movesSched, Doc: "median Submit + Reoptimize"},
	{Name: "sched.place_us", Unit: "us", Better: "lower", Workloads: churnWL, Moves: movesSched, Doc: "median Submit alone (the placement decision)"},
	{Name: "sched.release_us", Unit: "us", Better: "lower", Workloads: churnWL, Moves: movesSched, Doc: "median Release"},

	// experiments, venus, dimemas
	{Name: "experiments.figure2_s", Unit: "s", Better: "lower", Workloads: reproWL, Moves: movesSweep, Doc: "experiments.Figure2 (WRF), cold table cache"},
	{Name: "experiments.figure5_s", Unit: "s", Better: "lower", Workloads: reproWL, Moves: movesSweep, Doc: "experiments.Figure5 (WRF), cold table cache"},
	{Name: "experiments.cells_per_s", Unit: "1/s", Better: "higher", Workloads: reproWL, Moves: movesSweep, Doc: "sweep cells completed per second across the two figures"},
	{Name: "venus.run_pattern_ms", Unit: "ms", Better: "lower", Workloads: reproWL, Moves: movesSimulated, Doc: "median venus.RunPattern of one CG phase"},
	{Name: "venus.events_per_s", Unit: "1/s", Better: "higher", Workloads: reproWL, Moves: movesSimulated, Doc: "simulator events processed per second"},
	{Name: "dimemas.replay_ms", Unit: "ms", Better: "lower", Workloads: reproWL, Moves: movesSimulated, Doc: "median dimemas.Replay of the CG trace"},

	// trace, machine
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Workloads: resolveWL, Doc: "traced closed-loop p50 / untraced closed-loop p50 of the same run"},
	{Name: "machine.calibration_ns", Unit: "ns", Better: "lower", Doc: "median benchcal.Spin(4096): a drifting box shows here"},
	{Name: "machine.steal_ratio", Unit: "ratio", Better: "lower", Doc: "steal / total jiffies from /proc/stat over the run"},
}

// Universal reports whether the metric is one of the end-to-end
// metrics defined on every workload.
func (m Metric) Universal() bool { return m.DriverBound > 0 }

// MetricByName returns the catalog entry.
func MetricByName(name string) (Metric, bool) {
	for _, m := range Catalog {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// GatedOn reports whether perfreport -aa holds the metric's bound on
// the workload.
func (m Metric) GatedOn(workload string) bool {
	_, unheld := m.Unheld[workload]
	return m.Bound > 0 && m.AppliesTo(workload) && !unheld
}

// AppliesTo reports whether the metric is measured on the workload.
func (m Metric) AppliesTo(workload string) bool {
	if len(m.Workloads) == 0 {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}
