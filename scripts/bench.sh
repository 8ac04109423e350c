#!/usr/bin/env sh
# bench.sh — seed the perf trajectory: run the evaluator, fabric, wire
# and experiment-engine benchmarks once and write the raw `go test
# -json` event stream to BENCH_<date>.json. One file per day of work;
# diff successive files (or feed them to benchstat after converting)
# to see where the hot paths moved. CI runs this once per push as a
# smoke check that every benchmark still compiles and completes.
#
# The gate/baseline modes turn the trajectory into a regression gate:
# `baseline` runs the hot-path benchmarks (the packed batch resolve —
# bare, observed and traced — and the fused pass the binary front door
# serves: cache-hot, with the cache emptied before every batch as the
# live daemon meets it, and as 16-pair frames from parallel goroutines;
# wire encode/decode, end-to-end and a pipelined burst — bare, observed
# and traced at 0/1 as fabricd runs it — evaluator cache, the
# census every analytic score is a max over, LoadState route deltas,
# the Optimize pass and the Colored build that is its dearest candidate
# (the figures' CG phases and the daemon's 1 024-flow observed phase),
# delta-scored placement, and the control plane's
# time-to-new-generation: FailLink swap, Heal, a whole churn cycle
# (feed, Optimize, FailLink, Heal), a fabric built from nothing at 256
# and 4 096 leaves, and the from-scratch deadlock certification; and
# what the simulated and census figures of the paper are made of: the
# network simulator's event loop, trace replay over it, one simulated
# Fig. 2b point, and the Fig. 4 NCA census: Random's over all pairs,
# r-NCA-u's per guide leaf) with -count=5 and commits the min-of-runs
# ns/op per benchmark to scripts/bench_baseline.json; `gate` repeats
# the run and fails (via cmd/benchgate) when any gated benchmark
# regressed more than 10% against that committed baseline, or when a
# same-run ratio listed under "ratios" in that file (what telemetry +
# metrics cost over the bare lookup, what the tracer costs over that, in
# process and per pipelined frame, what the guided census costs over
# the all-pairs one, and how a fabric's build grows from 256 leaves to
# 4 096, which the deadlock gate's guided slot walk keeps near linear)
# is above its bound. CI runs `gate` on every push.
#
# Usage:
#   ./scripts/bench.sh                 # -benchtime=1x smoke run
#   ./scripts/bench.sh -benchtime=100x # steadier numbers, extra args
#                                      # are passed to `go test`
#   ./scripts/bench.sh gate            # fail on >10% hot-path regression
#   ./scripts/bench.sh baseline        # rewrite scripts/bench_baseline.json
set -eu
cd "$(dirname "$0")/.."

# The gated hot paths, plus the per-package machine-speed calibration
# (internal/benchcal) that benchgate divides out. Anchored so e.g.
# ResolveBatchPacked does not also pull in every sized variant that
# may appear later.
gate_bench='^(BenchmarkResolveBatchPackedTraced|BenchmarkResolveBatchPacked|BenchmarkResolveBatchPackedObserved|BenchmarkResolveWire|BenchmarkResolveWireCold|BenchmarkResolveWireParallel|BenchmarkWireEncodeRequest|BenchmarkWireDecodeRequest|BenchmarkWireEncodeResponse|BenchmarkWireDecodeResponse|BenchmarkWireResolveEndToEnd|BenchmarkWireResolvePipelined|BenchmarkWireResolvePipelinedObserved|BenchmarkWireResolvePipelinedTraced|BenchmarkCachedScoreHit|BenchmarkCachedScoreRoutesHit|BenchmarkApplyRouteDelta|BenchmarkOptimize|BenchmarkColoredOptimizer|BenchmarkPlaceIncremental|BenchmarkFailLinkSwap|BenchmarkHeal|BenchmarkChurnCycle|BenchmarkNew|BenchmarkAnalyze|BenchmarkVerifyDeadlockFree|BenchmarkSimulatorThroughput|BenchmarkTraceReplayWRF|BenchmarkFig2bSimulated|BenchmarkNCACensus|BenchmarkNCACensusGuided|BenchmarkCalibration)$'
gate_pkgs='./internal/fabric ./internal/wire ./internal/evaluate ./internal/sched ./internal/contention .'

run_gated() {
    # -benchtime=100ms gives every benchmark hundreds-to-thousands of
    # iterations per run. Samples are spread over five separate passes
    # rather than one -count=10 run: shared runners hit multi-second
    # slow phases that poison every consecutive sample of one
    # benchmark, while benchgate's min over widely spaced samples
    # shrugs them off.
    : >"$1"
    for _ in 1 2 3 4 5; do
        # shellcheck disable=SC2086
        go test -run='^$' -bench="$gate_bench" -benchtime=100ms -count=2 -json \
            $gate_pkgs >>"$1"
    done
}

mode="${1:-smoke}"
case "$mode" in
gate)
    cur="$(mktemp)"
    trap 'rm -f "$cur"' EXIT
    run_gated "$cur"
    go run ./cmd/benchgate -baseline scripts/bench_baseline.json \
        -current "$cur" -threshold 0.10
    ;;
baseline)
    raw="$(mktemp)"
    # The ratio bounds are read from the file being replaced, so the new
    # one is written beside the stream and moved over it.
    trap 'rm -f "$raw" "$raw.json"' EXIT
    run_gated "$raw"
    go run ./cmd/benchgate -extract "$raw" -baseline scripts/bench_baseline.json \
        -note "min ns/op over 5 spaced passes of -benchtime=100ms -count=2; rewrite with ./scripts/bench.sh baseline" \
        >"$raw.json"
    mv "$raw.json" scripts/bench_baseline.json
    echo "wrote scripts/bench_baseline.json"
    ;;
*)
    out="BENCH_$(date +%Y-%m-%d).json"
    go test -run='^$' -bench=. -benchtime=1x -json "$@" \
        ./internal/evaluate ./internal/fabric ./internal/wire ./internal/experiments . \
        >"$out"
    count=$(grep -c '"Output".*ns/op' "$out" || true)
    echo "wrote $out ($count benchmark results)"
    ;;
esac
