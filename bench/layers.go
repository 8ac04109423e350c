package bench

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/evaluate"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/venus"
	"repro/internal/wire"
	"repro/internal/xgft"
)

// The traced round's second half: the harness replays the workload's
// own inputs in process and wraps each call into a layer's public
// functions in a span. Nothing outside this directory is edited, so a
// layer's inner calls cannot be recorded where they happen; they are
// replayed one by one on the same inputs once the outer call has
// returned and attached to it as children (SpanRecorder.SelfTimes
// subtracts them).

// Span names. A metric named <module>.<x> is derived from the spans
// named <module>.<y> below; docs live in metrics.go and README.md.
const (
	spanUnit          = "replay.unit"
	spanEncodeRequest = "wire.encode_request"
	spanDecodeRequest = "wire.decode_request"
	spanEncodeReply   = "wire.encode_response"
	spanDecodeReply   = "wire.decode_response"
	spanLookupBare    = "fabric.lookup_bare"
	spanLookupCounted = "fabric.lookup_telemetry"
	spanLookupObs     = "fabric.resolve_batch_packed"
	spanFabricNew     = "fabric.new"
	spanBuildTable    = "core.build_table"
	spanVerify        = "contention.verify_deadlock"

	spanCycle      = "replay.cycle"
	spanSnapshot   = "fabric.snapshot_flows"
	spanOptimize   = "fabric.optimize"
	spanColored    = "core.colored_build"
	spanLoadState  = "evaluate.loadstate_build"
	spanRouteDelta = "evaluate.route_delta"
	spanScore      = "evaluate.score"
	spanAnalyze    = "contention.analyze"
	spanFailLink   = "fabric.faillink"
	spanPatchTable = "core.patch_table"
	spanRoutes     = "fabric.routes_materialize"
	spanHeal       = "fabric.heal"
	spanSubmit     = "sched.submit"
	spanPlace      = "sched.place"
	spanRelease    = "sched.release"

	spanFigure2 = "experiments.figure2"
	spanFigure5 = "experiments.figure5"
	spanVenus   = "venus.run_pattern"
	spanDimemas = "dimemas.replay"
)

// replayPasses is how many times the pool is replayed for the codec
// and lookup timings; replayCycles how many control cycles; simReps
// how many simulator runs.
const (
	replayPasses = 5
	replayCycles = 6
	loopbackReps = 200
	simReps      = 5
)

// perPairShareBulk is the share of the daemon's closed-loop service
// time that per-pair work must account for on resolve_bulk.
const perPairShareBulk = 0.80

// medianOf returns the median duration of the named spans in the
// given unit (1e3 for microseconds, 1e6 for milliseconds, ...).
func medianOf(durs map[string][]time.Duration, name string, per float64) (float64, int) {
	ds := durs[name]
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d.Nanoseconds()) / per
	}
	return Median(vals), len(vals)
}

// spanMetric derives one metric from the spans of one name: their
// median duration in the given unit (1e3 us, 1e6 ms).
type spanMetric struct {
	metric, span string
	per          float64
}

// putSpans records each listed metric whose span was recorded.
func putSpans(a *acc, durs map[string][]time.Duration, list []spanMetric) {
	for _, sm := range list {
		if v, n := medianOf(durs, sm.span, sm.per); n > 0 {
			a.put(sm.metric, v, n)
		}
	}
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// daemonReplica is an in-process build of what fabricd assembles from
// its flags: one registry, one table cache, a cached analytic
// evaluator, the fabric and the scheduler over it.
type daemonReplica struct {
	f     *fabric.Fabric
	s     *sched.Scheduler
	cache *core.TableCache
	algo  core.Algorithm
}

func newDaemonReplica(tp *xgft.Topology, algoName, policy string, telemetry bool) (*daemonReplica, error) {
	algo, err := core.NewByName(algoName, tp, 1, nil)
	if err != nil {
		return nil, err
	}
	pol, err := sched.PolicyByName(policy)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	jnl := obs.NewJournal(1024, nil)
	cache := core.NewTableCache(16)
	cached := evaluate.NewCached(evaluate.NewAnalytic(cache), 256)
	cached.Instrument(reg)
	tr := trace.New(trace.Config{SampleNum: 0, SampleDen: 1, Metrics: reg})
	cached.Trace(tr)
	f, err := fabric.New(fabric.Config{
		Topo: tp, Algo: algo, Cache: cache, Telemetry: telemetry,
		Evaluator: cached, Metrics: reg, Journal: jnl, Tracer: tr,
	})
	if err != nil {
		return nil, err
	}
	s, err := sched.New(sched.Config{Fabric: f, Policy: pol, Seed: 1, Metrics: reg, Journal: jnl, Tracer: tr})
	if err != nil {
		return nil, err
	}
	return &daemonReplica{f: f, s: s, cache: cache, algo: algo}, nil
}

// cacheHitRatio is the table cache's hits over lookups.
func cacheHitRatio(c *core.TableCache) (float64, int) {
	hits, misses := c.Stats()
	if hits+misses == 0 {
		return 0, 0
	}
	return float64(hits) / float64(hits+misses), int(hits + misses)
}

// frameBounds splits a unit's flattened pairs back into its frames.
func frameBounds(total, framePairs int) [][2]int {
	var out [][2]int
	for lo := 0; lo < total; lo += framePairs {
		hi := lo + framePairs
		if hi > total {
			hi = total
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// layers replays the resolve workload's own units in process: the
// daemon's start-up work, the four codecs, the lookup with and without
// telemetry and metrics, and the unit through an in-process server
// over TCP.
func (w *resolveWorkload) layers() error {
	rec := NewSpanRecorder()
	framePairs := len(w.pairs[0])
	if w.name == ResolveSmall {
		framePairs = w.env.sz.framePairs
	}

	// Start-up work, as fabricd does it.
	var full *daemonReplica
	var err error
	rec.Time(spanFabricNew, 0, 0, func() { full, err = newDaemonReplica(w.tp, w.env.sz.algo, "linear", true) })
	if err != nil {
		return err
	}
	all := pattern.AllToAll(w.tp.Leaves(), 1)
	var tbl *core.Table
	rec.Time(spanBuildTable, 0, 0, func() { tbl, err = core.BuildTable(w.tp, full.algo, all) })
	if err != nil {
		return err
	}
	rec.Time(spanVerify, 0, 0, func() { err = contention.VerifyDeadlockFree(w.tp, tbl.Routes) })
	if err != nil {
		return err
	}
	putSpans(w.acc, rec.Durations(), []spanMetric{
		{"fabric.new_ms", spanFabricNew, 1e6},
		{"core.build_table_ms", spanBuildTable, 1e6},
		{"contention.verify_deadlock_ms", spanVerify, 1e6},
	})
	ratio, lookups := cacheHitRatio(full.cache)
	w.acc.put("core.cache_hit_ratio", ratio, lookups)

	ct, err := replayUnits(rec, w.acc, full, w.pairs, framePairs)
	if err != nil {
		return err
	}
	if err := frameCost(w.acc, w.pairs[0][:min(len(w.pairs[0]), 16)]); err != nil {
		return err
	}
	if err := loopback(w.acc, full.f, w.mk); err != nil {
		return err
	}

	// How much of the daemon's service time is per-pair work: the
	// server-side codecs and the observed lookup, times pairs per frame,
	// against the service time of the hot closed loop (the open loop's
	// daemon.service_us is a daemon that idles between requests and runs
	// cold). resolve_bulk exists to be per-pair work, resolve_small to
	// be the inverse: at most half of bulk's floor.
	if service := w.closedServiceUS; service > 0 {
		perFrame := (ct.decodeRequest + ct.encodeResponse + ct.observed) * float64(framePairs) / 1e3
		share := perFrame / service
		closed, want := share >= perPairShareBulk, fmt.Sprintf("at least %.0f %%", 100*perPairShareBulk)
		if w.name == ResolveSmall {
			closed, want = share <= perPairShareBulk/2, fmt.Sprintf("at most %.0f %%", 100*perPairShareBulk/2)
		}
		w.budget = append(w.budget, BudgetCheck{Closed: closed, What: fmt.Sprintf(
			"per-pair layers (decode %.1f + lookup+telemetry+metrics %.1f + encode %.1f ns/pair) x %d pairs = %.1f us = %.1f %% of daemon.service_closed_us %.1f us (%s closes), %.1f %% of the trailer's total %.1f us, which ends before the response write",
			ct.decodeRequest, ct.observed, ct.encodeResponse, framePairs, perFrame, 100*share, service, want, 100*perFrame/w.trailerUS, w.trailerUS)})
	}
	return rec.WriteFile(filepath.Join(w.env.outDir, "trace-"+w.name+".json"))
}

// codecTimes are the server-side per-pair costs replayUnits measured,
// in nanoseconds per pair.
type codecTimes struct {
	decodeRequest, encodeResponse, observed float64
}

// replayUnits replays units of pre-generated frames through the four
// wire codecs and through the store three ways — bare, with telemetry,
// and as the daemon runs it (telemetry and metrics) — and records the
// wire.* and fabric.* per-pair metrics. Each stage is one span per
// unit, looping over the unit's frames inside it, so the clock reads
// do not drown a 16-pair frame.
func replayUnits(rec *SpanRecorder, a *acc, full *daemonReplica, units [][][2]int, framePairs int) (codecTimes, error) {
	tp := full.f.Topology()
	bare, err := fabric.New(fabric.Config{Topo: tp, Algo: full.algo})
	if err != nil {
		return codecTimes{}, err
	}
	counted, err := fabric.New(fabric.Config{Topo: tp, Algo: full.algo, Telemetry: true})
	if err != nil {
		return codecTimes{}, err
	}
	var req, resp []byte
	var decoded [][2]int
	words := make([]uint64, framePairs)
	var back []uint64
	var lookupAllocs uint64
	for pass := 0; pass < replayPasses; pass++ {
		for u, pairs := range units {
			id := uint64(pass*len(units) + u)
			frames := frameBounds(len(pairs), framePairs)
			root := rec.Start(spanUnit, 0, id)
			rec.Time(spanEncodeRequest, root, id, func() {
				req = req[:0]
				for _, b := range frames {
					req, err = wire.AppendResolveRequest(req, pairs[b[0]:b[1]])
				}
			})
			if err != nil {
				return codecTimes{}, err
			}
			frameLen := len(req) / len(frames)
			rec.Time(spanDecodeRequest, root, id, func() {
				for f := range frames {
					decoded, err = wire.DecodeResolveRequest(req[f*frameLen+wire.HeaderSize:(f+1)*frameLen], decoded[:0])
				}
			})
			if err != nil {
				return codecTimes{}, err
			}
			rec.Time(spanLookupBare, root, id, func() {
				for _, b := range frames {
					bare.ResolveBatchPacked(pairs[b[0]:b[1]], words)
				}
			})
			rec.Time(spanLookupCounted, root, id, func() {
				for _, b := range frames {
					counted.ResolveBatchPacked(pairs[b[0]:b[1]], words)
				}
			})
			m0 := mallocs()
			rec.Time(spanLookupObs, root, id, func() {
				for _, b := range frames {
					full.f.ResolveBatchPacked(pairs[b[0]:b[1]], words)
				}
			})
			lookupAllocs += mallocs() - m0
			rec.Time(spanEncodeReply, root, id, func() {
				resp = resp[:0]
				for range frames {
					resp, err = wire.AppendResolveResponse(resp, 0, words)
				}
			})
			if err != nil {
				return codecTimes{}, err
			}
			respLen := len(resp) / len(frames)
			rec.Time(spanDecodeReply, root, id, func() {
				for f := range frames {
					_, back, err = wire.DecodeResolveResponse(resp[f*respLen+wire.HeaderSize:(f+1)*respLen], back[:0])
				}
			})
			if err != nil {
				return codecTimes{}, err
			}
			rec.End(root)
		}
	}
	durs := rec.Durations()
	ppu := float64(len(units[0]))
	framesPerUnit := float64(len(frameBounds(len(units[0]), framePairs)))
	perPair := func(metric, span string) float64 {
		v, n := medianOf(durs, span, ppu)
		a.put(metric, v, n)
		return v
	}
	perPair("wire.encode_request_ns_per_pair", spanEncodeRequest)
	ct := codecTimes{decodeRequest: perPair("wire.decode_request_ns_per_pair", spanDecodeRequest)}
	ct.encodeResponse = perPair("wire.encode_response_ns_per_pair", spanEncodeReply)
	perPair("wire.decode_response_ns_per_pair", spanDecodeReply)
	lookup := perPair("fabric.lookup_ns_per_pair", spanLookupBare)
	withTel, n := medianOf(durs, spanLookupCounted, ppu)
	a.put("fabric.telemetry_ns_per_pair", withTel-lookup, n)
	// The replica also resolved outside this replay (control cycles),
	// so only this replay's spans count: they are the last n recorded.
	obsSpans := durs[spanLookupObs]
	obsVals := make([]float64, 0, n)
	for _, d := range obsSpans[len(obsSpans)-n:] {
		obsVals = append(obsVals, float64(d.Nanoseconds())/ppu)
	}
	ct.observed = Median(obsVals)
	a.put("fabric.metrics_ns_per_batch", (ct.observed-withTel)*ppu/framesPerUnit, n)
	a.put("fabric.allocs_per_batch", float64(lookupAllocs)/(float64(n)*framesPerUnit), n)
	return ct, nil
}

// frameCost times the fixed cost of one small frame from memory: the
// header build plus FrameReader.Read.
func frameCost(a *acc, pairs [][2]int) error {
	const reps = 4096
	one, err := wire.AppendResolveRequest(nil, pairs)
	if err != nil {
		return err
	}
	stream := bytes.Repeat(one, reps)
	fr := wire.NewFrameReader(bytes.NewReader(stream))
	var hdr []byte
	start := time.Now()
	for i := 0; i < reps; i++ {
		hdr = wire.AppendHeader(hdr[:0], wire.TypeResolveRequest, len(one)-wire.HeaderSize)
		if _, _, err := fr.Read(); err != nil {
			return err
		}
	}
	a.put("wire.frame_ns", float64(time.Since(start).Nanoseconds())/reps, reps)
	return nil
}

// loopback drives the workload's own units through an in-process
// wire.Server over TCP: the round trip without the process boundary,
// and the allocations both ends make per unit.
func loopback(a *acc, res wire.Resolver, mk func(addr string) (unitDriver, error)) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &wire.Server{Resolver: res}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l) // returns once Close below runs
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	drv, err := mk(l.Addr().String())
	if err != nil {
		return err
	}
	defer drv.close()
	if _, err := drv.do(0); err != nil { // warm both ends' buffers
		return err
	}
	rtts := make([]float64, 0, loopbackReps)
	m0 := mallocs()
	for i := 0; i < loopbackReps; i++ {
		start := time.Now()
		if _, err := drv.do(i); err != nil {
			return fmt.Errorf("bench: loopback unit %d: %w", i, err)
		}
		rtts = append(rtts, us(time.Since(start)))
	}
	allocs := mallocs() - m0
	a.put("wire.loopback_rtt_us", Median(rtts), len(rtts))
	a.put("wire.allocs_per_batch", float64(allocs)/loopbackReps, loopbackReps)
	return nil
}

// jobSpec mirrors fabricd's POST /jobs profiles (cmd/fabricd jobSpec)
// so the in-process replica submits exactly what the daemon was sent.
func jobSpec(app string, n int, seed uint64) (sched.JobSpec, error) {
	const bytes = 64 * 1024
	var phases []*pattern.Pattern
	switch app {
	case "perm":
		phases = []*pattern.Pattern{pattern.KeyedRandomPermutation(n, bytes, hashutil.Mix(0x10b5, seed))}
	case "wrf":
		phases = []*pattern.Pattern{pattern.WRF(n/16, 16, bytes)}
	case "cg":
		cg, err := pattern.CGPhases(n, bytes)
		if err != nil {
			return sched.JobSpec{}, err
		}
		phases = cg
	default:
		return sched.JobSpec{}, fmt.Errorf("bench: unknown job app %q", app)
	}
	return sched.JobSpec{Name: fmt.Sprintf("%s-%d", app, n), N: n, Phases: phases}, nil
}

// layers replays the first control cycles on an in-process replica of
// the daemon, span by span, and checks that the replica decided what
// the daemon decided: same swaps, same winners, same placements.
func (w *churnWorkload) layers() error {
	rec := NewSpanRecorder()
	var rep *daemonReplica
	var err error
	rec.Time(spanFabricNew, 0, 0, func() { rep, err = newDaemonReplica(w.tp, w.env.sz.algo, "telemetry", true) })
	if err != nil {
		return err
	}
	f, s := rep.f, rep.s
	allPairs := pattern.AllToAll(w.tp.Leaves(), 1)
	words := make([]uint64, 0, 4096)
	resolve := func(pairs [][2]int) {
		if cap(words) < len(pairs) {
			words = make([]uint64, len(pairs))
		}
		f.ResolveBatchPacked(pairs, words[:len(pairs)])
	}
	resolve(w.firstProbe) // the set-up probe reached the daemon's counters too
	pass := func(res fabric.OptimizeResult, ran bool) *optimizeReply {
		if !ran {
			return nil
		}
		return &optimizeReply{Best: res.Best, Swapped: res.Swapped}
	}
	analytic := evaluate.NewAnalytic(rep.cache)

	cycles := min(w.cycle, replayCycles)
	var chain []string
	for c := 0; c < cycles; c++ {
		in, err := churnCycle(w.tp, w.env.sz, w.env.seed, c)
		if err != nil {
			return err
		}
		id := uint64(c)
		root := rec.Start(spanCycle, 0, id)
		rec.Time(spanLookupObs, root, id, func() { resolve(in.Feed) })

		var observed *pattern.Pattern
		snap := rec.Start(spanSnapshot, root, id)
		observed = f.SnapshotFlows()
		rec.End(snap)
		serving := f.Generation()

		var opt fabric.OptimizeResult
		optSpan := rec.Start(spanOptimize, root, id)
		opt, err = f.Optimize(fabric.OptimizeConfig{Threshold: optimizeThreshold, Reset: true})
		rec.End(optSpan)
		if err != nil {
			return fmt.Errorf("bench: replica optimize, cycle %d: %w", c, err)
		}
		rec.Reparent(snap, optSpan) // Optimize snapshots first
		if err := w.replayOptimize(rec, optSpan, id, observed, serving, allPairs, analytic); err != nil {
			return err
		}
		resolve(in.Probe)

		failSpan := rec.Start(spanFailLink, root, id)
		_, err = f.FailLink(in.Level, in.Switch, in.Port)
		rec.End(failSpan)
		if err != nil {
			return fmt.Errorf("bench: replica fail-link, cycle %d: %w", c, err)
		}
		if err := w.replayFailLink(rec, failSpan, id, in, rep, allPairs); err != nil {
			return err
		}
		resolve(in.Probe)

		rec.Time(spanHeal, root, id, func() { _, err = f.Heal() })
		if err != nil {
			return fmt.Errorf("bench: replica heal, cycle %d: %w", c, err)
		}
		resolve(in.Probe)

		spec, err := jobSpec(in.JobApp, in.JobN, in.JobSeed)
		if err != nil {
			return err
		}
		var job *sched.Job
		var sub, rel jobReply
		subSpan := rec.Start(spanSubmit, root, id)
		rec.Time(spanPlace, subSpan, id, func() { job, err = s.Submit(spec) })
		if err != nil {
			return fmt.Errorf("bench: replica submit, cycle %d: %w", c, err)
		}
		res, ran, err := s.Reoptimize(optimizeThreshold)
		rec.End(subSpan)
		if err != nil {
			return fmt.Errorf("bench: replica submit re-optimize, cycle %d: %w", c, err)
		}
		sub.Job.Leaves, sub.Optimize = job.Leaves, pass(res, ran)
		resolve(in.Probe)

		relSpan := rec.Start(spanRelease, root, id)
		err = s.Release(job.ID)
		rec.End(relSpan)
		if err != nil {
			return fmt.Errorf("bench: replica release, cycle %d: %w", c, err)
		}
		res, ran, err = s.Reoptimize(optimizeThreshold)
		if err != nil {
			return fmt.Errorf("bench: replica release re-optimize, cycle %d: %w", c, err)
		}
		rel.Optimize = pass(res, ran)
		resolve(in.Probe)
		rec.End(root)

		dec := decision(c, optimizeReply{Best: opt.Best, Swapped: opt.Swapped}, sub, rel)
		chain = append(chain, chainHash(chain, dec))
		w.tally.Attempt(1)
		if dec != w.decisions[c] {
			w.tally.Fail("cycle %d: the daemon decided %q, the in-process replica %q", c, w.decisions[c], dec)
		}
	}

	putSpans(w.acc, rec.Durations(), []spanMetric{
		{"fabric.new_ms", spanFabricNew, 1e6},
		{"fabric.faillink_ms", spanFailLink, 1e6},
		{"fabric.heal_ms", spanHeal, 1e6},
		{"fabric.optimize_ms", spanOptimize, 1e6},
		{"fabric.routes_materialize_ms", spanRoutes, 1e6},
		{"fabric.snapshot_flows_ms", spanSnapshot, 1e6},
		{"core.build_table_ms", spanBuildTable, 1e6},
		{"core.colored_build_ms", spanColored, 1e6},
		{"core.patch_table_ms", spanPatchTable, 1e6},
		{"contention.analyze_ms", spanAnalyze, 1e6},
		{"contention.verify_deadlock_ms", spanVerify, 1e6},
		{"evaluate.loadstate_build_ms", spanLoadState, 1e6},
		{"evaluate.route_delta_us", spanRouteDelta, 1e3},
		{"evaluate.score_ms", spanScore, 1e6},
		{"sched.submit_ms", spanSubmit, 1e6},
		{"sched.place_us", spanPlace, 1e3},
		{"sched.release_us", spanRelease, 1e3},
	})
	putSpans(w.acc, rec.SelfTimes(), []spanMetric{{"fabric.optimize_self_ms", spanOptimize, 1e6}})
	ratio, lookups := cacheHitRatio(rep.cache)
	w.acc.put("core.cache_hit_ratio", ratio, lookups)

	// The probe stream's batches through the codecs and the store.
	probeUnits := [][][2]int{w.selfPairs}
	if _, err := replayUnits(rec, w.acc, rep, probeUnits, len(w.selfPairs)); err != nil {
		return err
	}
	mk := func(addr string) (unitDriver, error) {
		c, err := wire.Dial(addr, unitTimeout)
		if err != nil {
			return nil, err
		}
		return &bulkDriver{c: c, pool: probeUnits, want: [][]uint64{make([]uint64, len(w.selfPairs))}}, nil
	}
	if err := frameCost(w.acc, w.selfPairs[:min(len(w.selfPairs), 16)]); err != nil {
		return err
	}
	if err := loopback(w.acc, rep.f, mk); err != nil {
		return err
	}
	if len(chain) > 0 {
		w.notes = append(w.notes, fmt.Sprintf("in-process replica agrees with the daemon on the first %d cycles (decision hash %s)", len(chain), chain[len(chain)-1]))
	}
	return rec.WriteFile(filepath.Join(w.env.outDir, "trace-"+ChurnMixed+".json"))
}

// replayOptimize replays, as children of the Optimize span, the calls
// a pass makes on the pattern it observed: the Colored build and its
// all-pairs table, the load state over the serving routes, one
// candidate's route delta; and, beside them, a from-scratch score and
// census of the same routes.
func (w *churnWorkload) replayOptimize(rec *SpanRecorder, parent int, id uint64, observed *pattern.Pattern, serving *fabric.Generation, allPairs *pattern.Pattern, eval evaluate.Evaluator) error {
	if observed == nil || len(observed.Flows) == 0 {
		return nil
	}
	var err error
	var colored *core.Colored
	rec.Time(spanColored, parent, id, func() {
		colored = core.NewColored(w.tp, []*pattern.Pattern{observed}, core.ColoredConfig{Seed: 1})
	})
	rec.Time(spanBuildTable, parent, id, func() { _, err = core.BuildTable(w.tp, colored, allPairs) })
	if err != nil {
		return err
	}
	routes := make([]xgft.Route, len(observed.Flows))
	for i, fl := range observed.Flows {
		r, ok := serving.Resolve(fl.Src, fl.Dst)
		if !ok {
			return fmt.Errorf("bench: observed pair (%d,%d) does not resolve in the replica", fl.Src, fl.Dst)
		}
		routes[i] = r
	}
	var ls *evaluate.LoadState
	rec.Time(spanLoadState, parent, id, func() { ls, err = evaluate.NewLoadState(w.tp, observed, routes) })
	if err != nil {
		return err
	}
	var flows []pattern.Flow
	var oldR, newR []xgft.Route
	for i, fl := range observed.Flows {
		if cand := colored.Route(fl.Src, fl.Dst); !sameRoute(cand, routes[i]) {
			flows = append(flows, fl)
			oldR = append(oldR, routes[i])
			newR = append(newR, cand)
		}
	}
	if len(flows) > 0 {
		rec.Time(spanRouteDelta, parent, id, func() { err = ls.ApplyRouteDelta(flows, oldR, newR) })
		if err != nil {
			return err
		}
	}
	rec.Time(spanScore, 0, id, func() { _, err = eval.ScoreRoutes(w.tp, observed, routes) })
	if err != nil {
		return err
	}
	rec.Time(spanAnalyze, 0, id, func() { _, err = contention.Analyze(w.tp, observed, routes) })
	return err
}

// replayFailLink replays, as children of the FailLink span, the repair
// of the healthy table around the failed link, the materialization of
// the patched generation and its deadlock certificate.
func (w *churnWorkload) replayFailLink(rec *SpanRecorder, parent int, id uint64, in cycleInput, rep *daemonReplica, allPairs *pattern.Pattern) error {
	healthy, err := rep.cache.Build(w.tp, rep.algo, allPairs)
	if err != nil {
		return err
	}
	view := xgft.NewView(w.tp)
	view.FailLink(in.Level, in.Switch, in.Port)
	rec.Time(spanPatchTable, parent, id, func() { _, _, err = core.PatchTable(healthy, view) })
	if err != nil {
		return err
	}
	var routes []xgft.Route
	rec.Time(spanRoutes, parent, id, func() { routes = rep.f.Generation().Routes() })
	rec.Time(spanVerify, parent, id, func() { err = contention.VerifyDeadlockFree(w.tp, routes) })
	return err
}

func sameRoute(a, b xgft.Route) bool {
	if len(a.Up) != len(b.Up) {
		return false
	}
	for i := range a.Up {
		if a.Up[i] != b.Up[i] {
			return false
		}
	}
	return true
}

// layers times the sweep's layers in process: the two heaviest
// figures on a cold table cache, one cell's table build, Colored build
// and census, and the simulators on one CG phase.
func (w *sweepWorkload) layers() error {
	rec := NewSpanRecorder()
	seeds, bytes := w.env.sz.sweepSeeds, w.env.sz.simBytes
	cache := core.NewTableCache(4096)
	cells := 0
	opt := experiments.Options{Seeds: seeds, Parallelism: 2, Cache: cache, Progress: func(done, total int) {
		if done == total {
			cells += total
		}
	}}
	app := experiments.WRFApp()
	var err error
	fig2 := rec.Time(spanFigure2, 0, 2, func() { _, err = experiments.Figure2(app, opt) })
	if err != nil {
		return err
	}
	fig5 := rec.Time(spanFigure5, 0, 5, func() { _, err = experiments.Figure5(app, opt) })
	if err != nil {
		return err
	}
	w.acc.put("experiments.figure2_s", fig2.Seconds(), 1)
	w.acc.put("experiments.figure5_s", fig5.Seconds(), 1)
	w.acc.put("experiments.cells_per_s", float64(cells)/(fig2+fig5).Seconds(), cells)
	ratio, lookups := cacheHitRatio(cache)
	w.acc.put("core.cache_hit_ratio", ratio, lookups)

	// One sweep cell, layer by layer, on the paper's slimmed tree.
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	if err != nil {
		return err
	}
	phases := app.Phases(0)
	for seed := uint64(1); seed <= simReps; seed++ {
		var tbl *core.Table
		algo := core.NewRandomNCAUp(tp, seed)
		rec.Time(spanBuildTable, 0, seed, func() { tbl, err = core.BuildTable(tp, algo, phases[0]) })
		if err != nil {
			return err
		}
		rec.Time(spanAnalyze, 0, seed, func() { _, err = contention.Analyze(tp, phases[0], tbl.Routes) })
		if err != nil {
			return err
		}
		rec.Time(spanColored, 0, seed, func() { core.NewColored(tp, phases, core.ColoredConfig{Seed: seed}) })
	}

	// The simulators on the CG transpose, the phase that leaves the
	// first-level switches.
	cg := experiments.CGApp()
	cgPhases := cg.Phases(bytes)
	transpose := cgPhases[len(cgPhases)-1]
	tr, err := cg.Trace(bytes)
	if err != nil {
		return err
	}
	dmodk := core.NewDModK(tp)
	var events uint64
	var simTime time.Duration
	for i := 0; i < simReps; i++ {
		id := uint64(i)
		sim, err := venus.New(tp, venus.DefaultConfig())
		if err != nil {
			return err
		}
		simTime += rec.Time(spanVenus, 0, id, func() {
			for _, fl := range transpose.Flows {
				m := venus.Message{Src: fl.Src, Dst: fl.Dst, Bytes: fl.Bytes}
				if fl.Src != fl.Dst {
					m.Route = dmodk.Route(fl.Src, fl.Dst)
				}
				if err = sim.Inject(m); err != nil {
					return
				}
			}
			_, err = sim.Run(venus.EventBudget(transpose, venus.DefaultConfig()))
		})
		if err != nil {
			return err
		}
		events += sim.Q.Processed()
		rec.Time(spanDimemas, 0, id, func() {
			_, err = dimemas.Replay(tr, tp, dmodk, dimemas.Config{Net: venus.DefaultConfig()})
		})
		if err != nil {
			return err
		}
	}
	putSpans(w.acc, rec.Durations(), []spanMetric{
		{"core.build_table_ms", spanBuildTable, 1e6},
		{"core.colored_build_ms", spanColored, 1e6},
		{"contention.analyze_ms", spanAnalyze, 1e6},
		{"venus.run_pattern_ms", spanVenus, 1e6},
		{"dimemas.replay_ms", spanDimemas, 1e6},
	})
	w.acc.put("venus.events_per_s", float64(events)/simTime.Seconds(), int(events))
	return rec.WriteFile(filepath.Join(w.env.outDir, "trace-"+ReproSweep+".json"))
}
