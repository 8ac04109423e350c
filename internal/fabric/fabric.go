// Package fabric is the subnet-manager subsystem: it compiles a
// routing scheme into an all-pairs route store and serves it to
// concurrent Resolve queries while handling fabric degradation and
// re-fitting the table to the observed traffic. The store is immutable
// per generation and reached through one atomic pointer, so resolution
// is lock-free. The paper's routes were "supplied, along with the
// topology and mapping, to the Venus simulator" by exactly this offline
// role.
//
// What a pair resolves to is one rule, Generation.lookup: out of range →
// PackedUnreachable, else the table's word — a held row's, or the guided
// base's at the pair's NCA level, which is the empty route for a self
// pair. The resolve forms are passes over their own encodings around it
// — ResolveBatchPacked over []pair/[]word, ResolveWire over the binary
// protocol's bytes, Resolve decoding one word into an xgft.Route — all
// counted, timed and traced in one place, startPacked/endPacked.
//
// A table in serving form is a guided base plus held rows. S-/D-mod-k
// and the relabeling family (r-NCA-u/d) route every pair by its guide
// leaf and NCA level alone (core.GuideAscent), so their healthy table is
// h+1 words a leaf — its ascent packed once per prefix length — and
// holds no row. A source holds a row of its own only where a reroute or
// an override made it differ; a scheme that is not guided (Random,
// LevelWise, a loaded table) holds every row.
//
// A generation change costs in proportion to what it changes. Every
// generation is made by one function, derive, from three things: a base
// table in serving form, a list of override routes, and a fault view.
// The healthy table of each static scheme the fabric has installed — the
// configured one, and d-mod-k and r-NCA-u/d as they win optimize passes
// — is built once and pinned; its guided base and rows are never
// written again, so generations share them. FailLink/FailSwitch derive
// from the serving table under a larger view: only pairs with an
// endpoint under a newly failed wire are even looked at, and only the
// routes that ride one are recomputed, in copy-on-write rows of the
// sources they leave from. Heal derives from the configured scheme's
// pinned table under no faults: no row held for a guided scheme, all row
// sharing for another. An optimize swap derives from the winner's pinned
// table — Colored's is its d-mod-k fallback's guided base, with its
// assignments as overrides — under the serving view.
//
// Every generation passes a deadlock gate before it is published, and
// the gate keeps no state: each route it checks must climb the
// up*/down* rank order (contention.CheckRoute). Every route ever
// published climbs that one order, so the channel-dependency graph of
// any union of published tables is acyclic — the generation's own, and
// the old and the new table's with packets in flight across a swap. The
// gate checks only routes that were never checked: a pinned table's at
// its first install, then each generation's changed pairs — rerouted
// cells and overrides. A pinned guided base is checked once per (guide
// leaf, NCA level) slot, on one pair the slot serves: every pair it
// serves gets that one word, and the rank check reads only the word and
// the level of each wire the climb crosses, which is the same for all of
// them. Held rows are checked a route at a time.
package fabric

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/trace"
	"repro/internal/xgft"
)

// maxHeight bounds fabrics to topologies whose routes pack into one
// word (a byte per level, plus the NCA level in the top byte so the
// resolve path never recomputes it); realistic fat trees are h <= 6.
const maxHeight = 7

// Config parameterizes a fabric.
type Config struct {
	// Topo is the healthy topology. Required; Height must be <= 7 and
	// every W(l) <= 255 (the packed-route limits).
	Topo *xgft.Topology
	// Algo computes the healthy routes. Required. A guided scheme's
	// table is its guided base (h+1 words a leaf); any other is routed
	// straight into packed rows. Schemes implementing core.CacheKeyer are
	// pinned under their key, so installing one again reuses them.
	Algo core.Algorithm
	// Cache memoizes the Colored optimizer per observed pattern and backs
	// the default evaluator's phase tables; nil creates a private cache.
	// Sharing one cache across fabrics and experiment sweeps deduplicates
	// identical Colored constructions and scoring builds, including
	// concurrent ones (the singleflight coalescing of internal/memo). The
	// fabric's own healthy tables never pass through it.
	Cache *core.TableCache
	// Telemetry enables per-pair flow counters on the resolve path and
	// with them the Optimize re-optimization loop. A resolve pass counts
	// into a private shard (a plain increment and a dirty mark per pair,
	// one TryLock and Unlock per batch) that readers fold into the
	// matrix: 1.8x the bare lookup per 4096-pair batch in process, where
	// an atomic add per pair was 4.1x; see the Telemetry type. The
	// counters take leaves² × 8 B plus leaves² × 4 B per shard, at most
	// GOMAXPROCS shards. Disabled fabrics reject Optimize.
	Telemetry bool
	// Evaluator scores the current generation and the candidate
	// tables during Optimize passes. nil selects the analytic
	// congestion bound over the fabric's table cache (the default the
	// whole system steers by); inject a different backend — the
	// grouped-contention metric, the venus simulation, or a cached or
	// test double — to change what "better table" means.
	Evaluator evaluate.Evaluator
	// Metrics registers the fabric's instruments (resolve counters,
	// the resolve latency histogram, the generation gauge) in the given
	// registry. nil disables metric recording: the hot paths pay one
	// nil check and nothing else.
	Metrics *obs.Registry
	// Journal receives the fabric's control-plane events — every
	// generation swap with its reason and build stats, rejected fault
	// operations, and Optimize decisions with per-candidate scores.
	// nil disables event recording.
	Journal *obs.Journal
	// Tracer records spans: one per resolve call of a sampled trace
	// (joining the caller's trace when ResolveWire is handed a parent,
	// locally rooted otherwise; unsampled ones only when they breach a
	// budget) and one per Optimize pass, at any sampling rate, with
	// per-candidate children for sampled passes. An
	// Optimize outcome flip-flopping within a few passes reports a
	// flipflop anomaly through the tracer. nil disables spans.
	Tracer *trace.Tracer
}

// Fabric serves routing decisions for one topology under one scheme,
// surviving link and switch failures by generation swaps. All methods
// are safe for concurrent use: every resolve form is a lock-free
// read of the current generation; fault and heal operations
// serialize on an internal mutex and never block readers.
type Fabric struct {
	topo  *xgft.Topology
	algo  core.Algorithm
	cache *core.TableCache
	eval  evaluate.Evaluator
	tel   *Telemetry // nil when telemetry is disabled

	m        *fabricMetrics      // nil when metrics are disabled
	journal  *obs.Journal        // nil when event recording is disabled
	tracer   *trace.Tracer       // nil when span recording is disabled
	flips    *trace.FlipDetector // optimize-outcome flip-flop watch
	served   atomic.Uint64       // resolves served by the current generation (metrics only)
	lastSwap atomic.Int64        // unixnano of the last generation publish

	mu  sync.Mutex // serializes generation changes
	gen atomic.Pointer[Generation]
	// The healthy tables of the static schemes installed so far, by
	// CacheKey, and the configured scheme's apart (it need not have a
	// key, and Heal always returns to it).
	pinned     map[string]*table // guarded by mu
	configured *table            // set by New, then only read
}

// fabricMetrics is the fabric's instrument set; one per fabric, named
// once at construction so the hot paths never touch the registry.
type fabricMetrics struct {
	resolves   *obs.Counter   // routes served, sharded by source leaf
	unresolved *obs.Counter   // lookups that found no route
	batches    *obs.Counter   // resolve calls: packed batches, wire batches, single resolves
	packedNS   *obs.Histogram // resolve call latency
	generation *obs.Gauge     // serving generation sequence
	swaps      *obs.Counter   // generation hot-swaps installed
	swapNS     *obs.Histogram // deriving a published generation, the deadlock gate included
	verifyNS   *obs.Histogram // the deadlock gate of a published generation
}

// Metric and journal-event names. Constants — not literals at the
// call sites — so repolint's obskeys pass keeps the README inventory
// tied to the code.
const (
	metricResolves     = "fabric_resolves_total"
	metricUnresolved   = "fabric_unresolved_total"
	metricBatches      = "fabric_resolve_batches_total"
	metricPackedNS     = "fabric_resolve_batch_packed_ns"
	metricGeneration   = "fabric_generation"
	metricSwaps        = "fabric_generation_swaps_total"
	metricRoutesServed = "fabric_routes_served"
	// metricSwapBuildNS and metricVerifyNS split time-to-new-generation:
	// the whole derivation of each published generation, and the part of
	// it spent in the deadlock gate (checking the generation's routes that
	// were never checked against the up*/down* rank order).
	metricSwapBuildNS = "fabric_swap_build_ns"
	metricVerifyNS    = "fabric_verify_ns"
	// What telemetry's count shards cost, sampled at scrape time: shards
	// kept (n² × 4 B each), shard folds that moved a count into the
	// matrix, and counts moved.
	metricTelShards      = "fabric_telemetry_shards"
	metricTelFolds       = "fabric_telemetry_folds_total"
	metricTelFoldedCells = "fabric_telemetry_folded_cells_total"

	eventGenerationSwap = "generation.swap"
	// keyCertified and keySharedRows are the generation.swap fields that
	// say what the swap cost: routes the deadlock gate checked, and rows
	// shared rather than cloned.
	keyCertified       = "certified_routes"
	keySharedRows      = "shared_rows"
	eventOptimize      = "optimize"
	eventOptimizeError = "optimize.error"
)

// Span names the fabric records (constants for repolint's obskeys
// pass), and the attribute keys they carry.
const (
	spanBatchPacked = "fabric.resolve_batch_packed"
	spanOptimize    = "fabric.optimize"
	spanCandidate   = "fabric.optimize.candidate"

	attrPairs       = "pairs"
	attrResolved    = "resolved"
	attrGen         = "gen"
	attrSwapped     = "swapped"
	attrCandidates  = "candidates"
	attrSlowdownPPM = "slowdown_ppm"
)

// SpanNames lists every span name this package records, for the
// documentation drift test.
func SpanNames() []string {
	return []string{spanBatchPacked, spanOptimize, spanCandidate}
}

// SwapObsNames lists the metric names that split a generation swap's
// build time, for the documentation drift test.
func SwapObsNames() []string { return []string{metricSwapBuildNS, metricVerifyNS} }

// SwapEventKeys lists the generation.swap journal fields that say what
// a swap cost, for the documentation drift test.
func SwapEventKeys() []string { return []string{keyCertified, keySharedRows} }

func newFabricMetrics(reg *obs.Registry) *fabricMetrics {
	return &fabricMetrics{
		resolves:   reg.Counter(metricResolves, "routes served, by every resolve form", 8),
		unresolved: reg.Counter(metricUnresolved, "lookups that found no installed route", 1),
		batches:    reg.Counter(metricBatches, "resolve calls: packed and wire batches, and single resolves (batches of one)", 1),
		packedNS:   reg.Histogram(metricPackedNS, "whole-call latency of a resolve, in any form"),
		generation: reg.Gauge(metricGeneration, "serving generation sequence number"),
		swaps:      reg.Counter(metricSwaps, "generation hot-swaps installed after the initial build", 1),
		swapNS:     reg.Histogram(metricSwapBuildNS, "deriving a published generation (row sharing, overrides, reroutes, the deadlock gate)"),
		verifyNS:   reg.Histogram(metricVerifyNS, "the deadlock gate of a published generation: its routes never checked before against the up*/down* rank order, a pinned guided base once per (guide leaf, NCA level) slot"),
	}
}

// New builds a fabric and compiles its initial healthy generation
// (generation 0) synchronously, so a returned fabric always resolves.
func New(cfg Config) (f *Fabric, err error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("fabric: Config.Topo is required")
	}
	if cfg.Algo == nil {
		return nil, fmt.Errorf("fabric: Config.Algo is required")
	}
	if cfg.Topo.Height() > maxHeight {
		return nil, fmt.Errorf("fabric: height %d exceeds the packed-route limit %d", cfg.Topo.Height(), maxHeight)
	}
	for l := 0; l < cfg.Topo.Height(); l++ {
		if cfg.Topo.W(l) > 255 {
			return nil, fmt.Errorf("fabric: W(%d)=%d exceeds the packed-route limit 255", l, cfg.Topo.W(l))
		}
	}
	cache := cfg.Cache
	if cache == nil {
		cache = core.NewTableCache(8)
	}
	eval := cfg.Evaluator
	if eval == nil {
		eval = evaluate.NewAnalytic(cache)
	}
	f = &Fabric{
		topo:  cfg.Topo,
		algo:  cfg.Algo,
		cache: cache,
		eval:  eval,

		pinned: make(map[string]*table),
	}
	if cfg.Telemetry {
		f.tel = newTelemetry(cfg.Topo.Leaves())
	}
	if cfg.Metrics != nil {
		f.m = newFabricMetrics(cfg.Metrics)
		// Sampled at scrape time: resolves served by the generation
		// currently installed (reset on every swap).
		cfg.Metrics.GaugeFunc(metricRoutesServed, "resolves served by the current generation",
			func() float64 { return float64(f.served.Load()) })
		if tel := f.tel; tel != nil {
			cfg.Metrics.GaugeFunc(metricTelShards, "telemetry count shards kept (leaves^2 x 4 bytes each, at most GOMAXPROCS)",
				func() float64 { return float64(tel.keptShards()) })
			cfg.Metrics.CounterFunc(metricTelFolds, "count-shard folds that moved a count into the telemetry matrix", tel.folds.Load)
			cfg.Metrics.CounterFunc(metricTelFoldedCells, "non-zero shard counts folded into the telemetry matrix", tel.foldedCells.Load)
		}
	}
	f.journal = cfg.Journal
	f.tracer = cfg.Tracer
	f.flips = trace.NewFlipDetector(0)
	start := buildClock()
	if f.configured, _, err = f.pinLocked(cfg.Algo); err != nil {
		return nil, err
	}
	gen, err := f.derive(start, f.configured, nil, xgft.NewView(cfg.Topo), nil, cfg.Algo.Name())
	if err != nil {
		return nil, fmt.Errorf("fabric: healthy table rejected: %w", err)
	}
	f.publish(gen, "initial")
	return f, nil
}

// publish installs gen as the serving generation, stamps the swap
// time, updates the generation instruments, and journals the swap
// with its reason and build stats. Callers hold f.mu (except New,
// where the fabric is not yet shared).
func (f *Fabric) publish(gen *Generation, reason string) {
	f.gen.Store(gen)
	f.lastSwap.Store(time.Now().UnixNano()) //lint:allow nondeterminism swap wall-clock timestamp is observational (surfaced in status, not results)
	servedPrev := f.served.Swap(0)
	if f.m != nil {
		f.m.generation.Set(float64(gen.stats.Seq))
		if gen.stats.Seq > 0 {
			f.m.swaps.Inc()
		}
		f.m.swapNS.Observe(gen.stats.BuildTime.Nanoseconds())
		f.m.verifyNS.Observe(gen.stats.VerifyTime.Nanoseconds())
	}
	if f.journal != nil {
		st := gen.stats
		f.journal.Record(eventGenerationSwap, st.BuildTime, map[string]any{
			"reason": reason, "seq": st.Seq, "algo": st.Algo,
			"routes": st.Routes, "patched": st.Patched,
			"unreachable": st.Unreachable, "failed_wires": st.FailedWires,
			"failed_switches": st.FailedSwitches, "cache_hit": st.CacheHit,
			"served_prev": servedPrev,
			"build_ns":    (st.BuildTime - st.VerifyTime).Nanoseconds(),
			"verify_ns":   st.VerifyTime.Nanoseconds(),
			keyCertified:  st.CertifiedRoutes, keySharedRows: st.SharedRows,
		})
	}
}

// LastSwap returns the wall-clock time the serving generation was
// published — the readiness probe's "generation age" anchor.
func (f *Fabric) LastSwap() time.Time { return time.Unix(0, f.lastSwap.Load()) }

// Topology returns the healthy topology the fabric serves.
func (f *Fabric) Topology() *xgft.Topology { return f.topo }

// Generation returns the current (immutable) generation.
func (f *Fabric) Generation() *Generation { return f.gen.Load() }

// Stats returns the current generation's statistics.
func (f *Fabric) Stats() Stats { return f.gen.Load().Stats() }

// Telemetry returns the fabric's flow counters, nil when disabled.
func (f *Fabric) Telemetry() *Telemetry { return f.tel }

// Evaluator returns the scoring backend Optimize passes use (the
// analytic default when none was injected).
func (f *Fabric) Evaluator() evaluate.Evaluator { return f.eval }

// SnapshotFlows lowers the observed traffic into a pattern; it
// returns nil when telemetry is disabled.
func (f *Fabric) SnapshotFlows() *pattern.Pattern {
	if f.tel == nil {
		return nil
	}
	return f.tel.SnapshotFlows()
}

// Resolve returns the installed route from src to dst in the current
// generation, decoded; ok is false for out-of-range or unreachable
// pairs. It is ResolveBatchPacked over a batch of one — counted, timed
// and traced as such — plus the decode.
//
//repro:hotpath
func (f *Fabric) Resolve(src, dst int) (xgft.Route, bool) {
	var word [1]uint64
	f.ResolveBatchPacked([][2]int{{src, dst}}, word[:])
	return unpackedRoute(src, dst, word[0])
}

// startPacked opens a resolve: its span under parent by the tracer's
// request rule (a zero parent mints a local root; an unsampled trace
// records nothing unless the span breaches a budget) and, with metrics
// on, its monotonic clock.
//
//repro:hotpath
func (f *Fabric) startPacked(parent trace.SpanContext) (sp trace.Span, start int64) {
	sp = f.tracer.StartRequest(parent, spanBatchPacked)
	if f.m != nil {
		start = obs.Nanotime()
	}
	return sp, start
}

// endPacked closes what startPacked opened — the one place a resolve is
// counted and traced, whatever form it arrived in: one histogram
// observation and a handful of counter adds per batch of n pairs,
// amortized over every pair in it (no allocation, no locks), then the
// span's shape attributes. shard is the batch's first source, so busy
// sources spread over the resolve counter's shards.
//
//repro:hotpath
func (f *Fabric) endPacked(sp *trace.Span, start int64, gen *Generation, shard uint64, n, resolved int) {
	if f.m != nil {
		f.m.batches.Inc()
		f.m.resolves.AddAt(shard, uint64(resolved))
		if miss := n - resolved; miss > 0 {
			f.m.unresolved.Add(uint64(miss))
		}
		f.served.Add(uint64(resolved))
		f.m.packedNS.Observe(obs.Nanotime() - start)
	}
	sp.SetAttr(attrPairs, int64(n))
	sp.SetAttr(attrResolved, int64(resolved))
	sp.SetAttr(attrGen, int64(gen.stats.Seq))
	sp.End()
}

// ResolveBatchPacked resolves pairs[i] into out[i] as packed words
// against one consistent generation, returning how many resolved and
// that generation's sequence number. out must be at least as long as
// pairs. Zero allocations, and with telemetry enabled every resolved
// non-self pair counts in the lookup's own iteration: a plain increment
// in the count shard the pass holds for the batch, never an atomic and
// never a wait (see Telemetry; a snapshot sees the batch once it has
// ended). This is the in-process form of the packed resolve and the
// oracle ResolveWire is tested against; the binary front door serves
// ResolveWire.
//
//repro:hotpath
func (f *Fabric) ResolveBatchPacked(pairs [][2]int, out []uint64) (resolved int, generation uint64) {
	sp, start := f.startPacked(trace.SpanContext{})
	gen := f.gen.Load()
	resolved = gen.resolvePacked(f.tel, pairs, out)
	shard := uint64(0)
	if len(pairs) > 0 {
		shard = uint64(pairs[0][0])
	}
	f.endPacked(&sp, start, gen, shard, len(pairs), resolved)
	return resolved, gen.stats.Seq
}

// ResolveWire is ResolveBatchPacked fused with the binary protocol's
// codec — the wire-speed hot path. pairs is a resolve request's batch
// exactly as the frame carries it, 8 bytes a pair (big-endian uint32
// src, then dst; a trailing partial pair is ignored); one big-endian
// packed word per pair is appended to dst, which is returned extended.
// One pass reads a pair, looks it up in the one generation pinned for
// the batch, counts it in telemetry and writes its word: no []pair or
// []word staging in between. The per-pair rule and the instruments are
// ResolveBatchPacked's. The batch span joins parent's trace, inheriting
// its sampling verdict; a zero parent mints a local root. Zero
// allocations once dst has the capacity.
//
//repro:hotpath
func (f *Fabric) ResolveWire(parent trace.SpanContext, pairs, dst []byte) (out []byte, resolved int, generation uint64) {
	sp, start := f.startPacked(parent)
	gen := f.gen.Load()
	out, resolved = gen.appendResolveWire(f.tel, pairs, dst)
	shard := uint64(0)
	if len(pairs) >= 4 {
		shard = uint64(binary.BigEndian.Uint32(pairs))
	}
	f.endPacked(&sp, start, gen, shard, len(pairs)/8, resolved)
	return out, resolved, gen.stats.Seq
}

// table is an all-pairs route table in the form generations serve (see
// routes), together with the fault view its routes are known to survive
// and whether the deadlock gate has checked them. The healthy
// table of a static scheme is built once and pinned: its guided base and
// rows are never written again, so any number of generations share them.
type table struct {
	routes
	// view is the fault view every route avoids (nil: the healthy view,
	// which is all a pinned table is checked against); unreachable counts
	// the pairs it left without a route.
	view        *xgft.View
	unreachable int
	// checked is set once a generation derived from the table is
	// accepted: the gate has vouched for every one of its routes, a
	// guided base's through its slots (checkBase).
	checked bool
}

// maxPinned bounds the pinned tables a fabric keeps besides the
// configured scheme's: the static candidates at the seeds recently
// installed. Past it the set starts over.
const maxPinned = 8

// pinLocked returns algo's healthy all-pairs table in serving form,
// building it the first time the scheme is installed; hit reports that
// it was pinned already. A guided scheme's table is its guided base
// alone: each leaf's full-height ascent (core.GuideAscent), its ports
// checked against their radices, packed once per prefix length — h+1
// words a leaf and no row. Any other scheme is routed straight into packed
// rows, a source at a time: core.RouteFlows — which validates every
// non-self route — routes the row's n-1 pairs into scratch reused across
// rows, so the table is never held unpacked. Tables are pinned under the
// scheme's CacheKey; a scheme without one is built again per call.
// Callers hold f.mu.
func (f *Fabric) pinLocked(algo core.Algorithm) (tbl *table, hit bool, err error) {
	keyer, keyed := algo.(core.CacheKeyer)
	if keyed {
		if tbl = f.pinned[keyer.CacheKey()]; tbl != nil {
			return tbl, true, nil
		}
	}
	n := f.topo.Leaves()
	tbl = &table{routes: routes{rows: make([][]uint64, n), nca: f.topo.NCA(), topo: f.topo}}
	var buf [maxHeight]int
	if _, bySource, guided := core.GuideAscent(algo, 0, buf[:0]); guided {
		err = f.packGuided(tbl, algo, bySource)
	} else {
		err = f.packRows(tbl, algo)
	}
	if err != nil {
		return nil, false, err
	}
	if keyed {
		if len(f.pinned) >= maxPinned {
			clear(f.pinned)
		}
		f.pinned[keyer.CacheKey()] = tbl
	}
	return tbl, false, nil
}

// packGuided fills tbl's guided base from the guided scheme's ascents.
func (f *Fabric) packGuided(tbl *table, algo core.Algorithm, bySource bool) error {
	tbl.guided, tbl.bySource = make([]uint64, f.topo.Leaves()*guidedStride), bySource
	var buf [maxHeight]int
	for leaf := range tbl.rows {
		up, _, _ := core.GuideAscent(algo, leaf, buf[:0])
		if len(up) != f.topo.Height() {
			return fmt.Errorf("fabric: %s guide leaf %d ascends %d levels, want %d", algo.Name(), leaf, len(up), f.topo.Height())
		}
		ports := uint64(0)
		for lvl, p := range up {
			if p < 0 || p >= f.topo.W(lvl) {
				return fmt.Errorf("fabric: %s guide leaf %d takes up-port %d at level %d, out of range [0,%d)", algo.Name(), leaf, p, lvl, f.topo.W(lvl))
			}
			ports |= uint64(p) << (8 * uint(lvl))
			tbl.guided[leaf*guidedStride+lvl+1] = uint64(lvl+1)<<levelShift | ports
		}
	}
	return nil
}

// packRows routes every source's row of a scheme that is not guided
// into one pointer-free block of packed words.
func (f *Fabric) packRows(tbl *table, algo core.Algorithm) (err error) {
	n := f.topo.Leaves()
	tbl.held = true
	words := make([]uint64, n*n)
	row := &pattern.Pattern{N: n, Flows: make([]pattern.Flow, n-1)}
	var routes []xgft.Route
	var arena []int
	for s := range tbl.rows {
		tbl.rows[s] = words[s*n : (s+1)*n : (s+1)*n]
		for i := range row.Flows {
			d := i
			if d >= s {
				d++ // self-pairs are skipped
			}
			row.Flows[i] = pattern.Flow{Src: s, Dst: d}
		}
		if routes, arena, err = core.RouteFlows(f.topo, algo, row, routes, arena); err != nil {
			return err
		}
		for _, r := range routes {
			tbl.rows[s][r.Dst] = packRoute(r)
		}
	}
	return nil
}

// derive builds cur's successor — the one way a generation comes to
// be. The successor serves base's routes with the override routes (in
// (src, dst) order) written over them, under the fault view: a route
// riding a failed wire is rerouted (core.RerouteAvoiding) or, with no
// surviving minimal path, marked unreachable. Base's routes already
// avoid base.view, so only the wires view fails beyond it can break
// one, and a minimal route crosses a wire only on its source's or its
// destination's ancestor chain: the scan visits the pairs with an
// endpoint under a newly failed wire and no others — none at all when
// view adds nothing. The successor shares base's guided base; a source
// nothing was written to serves base's row (or none, the guided base's),
// a source is given a row of its own at its first differing word, and
// a row that ends up equal to cur's is cur's again. So FailLink is
// derive over cur's routes and a larger view, Heal is derive over the
// configured scheme's pinned table and a healthy view (no row at all for
// a guided scheme), and an optimize swap is derive over the winner's
// pinned table and its overrides under cur's view.
//
// The successor must pass certifyLocked or it is refused. cur is nil
// only for generation 0.
// start opens the generation's build clock (before the base table was
// pinned, when it had to be). Callers hold f.mu.
func (f *Fabric) derive(start time.Time, base *table, overrides []xgft.Route, view *xgft.View, cur *Generation, algoName string) (gen *Generation, err error) {
	n := f.topo.Leaves()
	seq := uint64(0)
	if cur != nil {
		seq = cur.stats.Seq + 1
	}
	// suspect[x]: leaf x lies under a wire that failed since base's
	// routes were checked. A suspect source's row is scanned whole, any
	// other row only at the suspect destinations; with no new failure
	// there is nothing to scan.
	var suspect []bool
	var all, suspects []int
	if failed := view.FailedSince(base.view); len(failed) > 0 {
		suspect, all = make([]bool, n), make([]int, n)
		for _, wire := range failed {
			level, index, _ := f.topo.ChannelOf(wire)
			for lo, hi := f.topo.LeavesUnder(level, index); lo < hi; lo++ {
				suspect[lo] = true
			}
		}
		for x := range all {
			all[x] = x
			if suspect[x] {
				suspects = append(suspects, x)
			}
		}
	}
	gen = &Generation{routes: base.routes, view: view}
	// gen.held is base's until a source is given a row of its own, and
	// exact once every source has been visited.
	gen.rows = make([][]uint64, n)
	var changed [][2]int    // the (src, dst) pairs whose word differs from base's
	var written []int       // the destinations the current source wrote
	var up [maxHeight]int   // the route being checked and rerouted, decoded
	var bufA, bufB []uint64 // countDiff's, made at its first call
	patched, unreachable, shared := 0, base.unreachable, 0
	for s := 0; s < n; s++ {
		from := base.rows[s]
		gen.rows[s], written = from, written[:0]
		set := func(d int, word uint64) {
			if isSameRow(gen.rows[s], from) {
				gen.rows[s], gen.held = base.heldRow(s), true
			}
			gen.rows[s][d] = word
			written = append(written, d)
		}
		for ; len(overrides) > 0 && overrides[0].Src == s; overrides = overrides[1:] {
			r := overrides[0]
			if err := r.Validate(f.topo); err != nil {
				return nil, fmt.Errorf("fabric: %s assigned an invalid route: %w", algoName, err)
			}
			if word := packRoute(r); word != gen.word(s, r.Dst) {
				set(r.Dst, word)
			}
		}
		scan := suspects
		if suspect != nil && suspect[s] {
			scan = all
		}
		for _, d := range scan {
			word := gen.word(s, d)
			if s == d || word == PackedUnreachable {
				continue
			}
			r := xgft.Route{Src: s, Dst: d, Up: AppendPackedUp(word, up[:0])}
			if view.RouteOK(r) {
				continue
			}
			if nr, ok := core.RerouteAvoiding(view, r); ok {
				set(d, packRoute(nr))
				patched++
			} else {
				set(d, PackedUnreachable)
				unreachable++
			}
		}
		// The words that differ from base's are among the ones written; a
		// word written twice (an override, then its reroute) can end where
		// base's was, and a source all of whose words did serves base's
		// row again.
		fromChanged := len(changed)
		slices.Sort(written)
		for _, d := range slices.Compact(written) {
			if gen.rows[s][d] != base.word(s, d) {
				changed = append(changed, [2]int{s, d})
			}
		}
		if len(changed) == fromChanged {
			gen.rows[s] = from
		}
		// A row given to s that ends up equal to cur's is cur's again. It
		// differs from base's, so only where base's row is not cur's can
		// it be.
		if cur != nil && !isSameRow(gen.rows[s], from) && !sameRow(&base.routes, &cur.routes, s) &&
			(cur.rows[s] != nil || isSameRow(gen.guided, cur.guided)) {
			if bufA == nil {
				bufA, bufB = make([]uint64, n), make([]uint64, n)
			}
			if countDiff(&gen.routes, &cur.routes, s, bufA, bufB) == 0 {
				gen.rows[s] = cur.rows[s]
			}
		}
		if isSameRow(gen.rows[s], from) || (cur != nil && sameRow(&gen.routes, &cur.routes, s)) {
			shared++
		}
	}
	if len(overrides) > 0 {
		return nil, fmt.Errorf("fabric: %s assigned routes out of (src, dst) order or out of range", algoName)
	}
	gen.held = slices.ContainsFunc(gen.rows, func(row []uint64) bool { return row != nil })
	gen.stats = Stats{
		Seq:            seq,
		Algo:           algoName,
		Routes:         n*(n-1) - unreachable,
		Patched:        patched,
		Unreachable:    unreachable,
		FailedWires:    view.FailedWires(),
		FailedSwitches: len(view.FailedSwitches()),
		SharedRows:     shared,
	}
	verifyStart := buildClock()
	if gen.stats.CertifiedRoutes, err = f.certifyLocked(base, gen, changed); err != nil {
		return nil, err
	}
	end := buildClock()
	gen.stats.VerifyTime = end.Sub(verifyStart)
	gen.stats.BuildTime = end.Sub(start)
	return gen, nil
}

// buildClock reads the wall clock for a generation's build and
// certification times, which are observational: they reach the journal,
// the metrics and Stats, never a routing decision.
func buildClock() time.Time {
	return time.Now() //lint:allow nondeterminism generation build and certification times are observational (journal/metrics only)
}

// sameRow reports whether source s serves one set of words in a and b
// without reading them: the same held array, or no row in either over
// the same guided base.
func sameRow(a, b *routes, s int) bool {
	ra, rb := a.rows[s], b.rows[s]
	if ra == nil && rb == nil {
		return isSameRow(a.guided, b.guided)
	}
	return isSameRow(ra, rb)
}

// wordsChanged counts the words gen serves differently from cur.
func wordsChanged(gen, cur *Generation) int {
	n := len(gen.rows)
	bufA, bufB := make([]uint64, n), make([]uint64, n)
	changed := 0
	for s := range gen.rows {
		if !sameRow(&gen.routes, &cur.routes, s) {
			changed += countDiff(&gen.routes, &cur.routes, s, bufA, bufB)
		}
	}
	return changed
}

// countDiff returns how many of source s's words differ between a and
// b; bufA and bufB (len N) lay out a guided base's.
func countDiff(a, b *routes, s int, bufA, bufB []uint64) int {
	diff := 0
	wb := b.rowOf(s, bufB)
	for d, w := range a.rowOf(s, bufA) {
		if w != wb[d] {
			diff++
		}
	}
	return diff
}

// isSameRow reports whether two slices are the same array (the
// copy-on-write "not yet cloned" test); two nil slices are.
func isSameRow(a, b []uint64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// certifyLocked is the deadlock gate every generation passes before it
// is published: each of its routes the gate has not checked before must
// climb the up*/down* rank order (contention.CheckRoute). Those are
// every route of base the first time that table is installed
// (checkBase), and the changed pairs — the words derive wrote that
// differ from base's (overrides and reroutes) — so the gate costs what
// the swap changes. Any other route was checked when it was first
// published, and since every checked route climbs the same order, no
// union of published tables can close a dependency cycle. It returns
// how many routes it vouched for; a refusal leaves base unchecked.
// Callers hold f.mu.
func (f *Fabric) certifyLocked(base *table, gen *Generation, changed [][2]int) (checked int, err error) {
	if !base.checked {
		if checked, err = checkBase(f.topo, &base.routes); err != nil {
			return 0, err
		}
	}
	for _, p := range changed {
		s, d := p[0], p[1]
		if word := gen.word(s, d); word != PackedUnreachable {
			if err := checkWord(f.topo, s, d, word); err != nil {
				return 0, err
			}
			checked++
		}
	}
	base.checked = true
	return checked, nil
}

// checkBase is the gate over a pinned table, which is in one of two
// forms: held rows alone, each route checked on its own, or a guided
// base alone, checked a slot at a time. Every pair with guide leaf g
// and NCA level l is served the one word guided[g*guidedStride+l], and
// CheckRoute's verdict on a word reads only its ports and the level of
// each wire the climb crosses — l for the step at level l, whatever
// the pair — so the verdict on the slot's representative pair (the
// first leaf of the slot's first range: g to it under a source-guided
// scheme, it to g under a destination-guided one) is the verdict on
// every pair the slot serves. It returns how many routes it vouched
// for: the non-self pairs served a word other than PackedUnreachable.
func checkBase(t *xgft.Topology, r *routes) (checked int, err error) {
	for s, row := range r.rows {
		for d, word := range row {
			if s == d || word == PackedUnreachable {
				continue
			}
			if err := checkWord(t, s, d, word); err != nil {
				return 0, err
			}
			checked++
		}
	}
	if r.guided == nil {
		return checked, nil
	}
	for g := range r.rows {
		done := 0 // the highest level checked; level 0 serves only the self pair
		t.NCARanges(g, func(lo, hi, l int) {
			word := r.guided[g*guidedStride+l]
			if err != nil || l == 0 || word == PackedUnreachable {
				return
			}
			if l > done {
				s, d := g, lo
				if !r.bySource {
					s, d = lo, g
				}
				if err = checkWord(t, s, d, word); err != nil {
					return
				}
				done = l
			}
			checked += hi - lo
		})
		if err != nil {
			return 0, err
		}
	}
	return checked, nil
}

// checkWord checks the packed route word serves s->d against the
// up*/down* rank order.
func checkWord(t *xgft.Topology, s, d int, word uint64) error {
	var up [maxHeight]int
	return contention.CheckRoute(t, s, d, AppendPackedUp(word, up[:0]))
}

// FailLink fails the wire leaving switch (level, index) through
// up-port p (and its paired down channel), reroutes the affected
// routes, checks the rerouted ones deadlock-free, and swaps in the new
// generation. The returned stats describe the swapped-in generation.
func (f *Fabric) FailLink(level, index, p int) (Stats, error) {
	return f.degrade(func(v *xgft.View) bool { return v.FailLink(level, index, p) },
		"fail.link", fmt.Sprintf("link (%d,%d) port %d", level, index, p))
}

// FailSwitch fails the switch (level, index) with every adjacent
// wire, reroutes the affected routes, checks them, and swaps.
func (f *Fabric) FailSwitch(level, index int) (Stats, error) {
	return f.degrade(func(v *xgft.View) bool { return v.FailSwitch(level, index) },
		"fail.switch", fmt.Sprintf("switch (%d,%d)", level, index))
}

// degrade applies one fault to a clone of the current view, derives
// the successor from the serving rows under it — only routes that
// traverse a newly failed wire are recomputed, untouched rows are
// shared — and publishes the result. Rejected operations (bad target,
// refused by the deadlock gate) are journaled under "<op>.rejected" so the
// event stream explains why no swap happened.
func (f *Fabric) degrade(fail func(*xgft.View) bool, op, what string) (Stats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.gen.Load()
	view := cur.view.Clone()
	if !fail(view) {
		err := fmt.Errorf("fabric: %s is out of range or already failed", what)
		f.reject(op, what, err)
		return cur.stats, err
	}
	// The serving rows as a table: every route avoids cur's view and was
	// checked when it was published.
	serving := &table{routes: cur.routes, view: cur.view, unreachable: cur.stats.Unreachable, checked: true}
	start := buildClock()
	gen, err := f.derive(start, serving, nil, view, cur, cur.stats.Algo)
	if err != nil {
		err = fmt.Errorf("fabric: patched table rejected, keeping generation %d: %w", cur.stats.Seq, err)
		f.reject(op, what, err)
		return cur.stats, err
	}
	f.publish(gen, op)
	return gen.stats, nil
}

// reject journals a refused control-plane operation.
func (f *Fabric) reject(op, what string, err error) {
	if f.journal != nil {
		//lint:allow obskeys event type is the rejected operation name, derived from a caller constant
		f.journal.Record(op+".rejected", 0, map[string]any{"what": what, "error": err.Error()})
	}
}

// Heal returns to the configured scheme's healthy table, discarding
// every recorded fault (and any optimized choice), and swaps it in as
// the next generation. The table was pinned and checked when the
// fabric was built, so the swap is row sharing.
func (f *Fabric) Heal() (Stats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.gen.Load()
	start := buildClock()
	gen, err := f.derive(start, f.configured, nil, xgft.NewView(f.topo), cur, f.algo.Name())
	if err != nil {
		err = fmt.Errorf("fabric: healthy table rejected: %w", err)
		f.reject("heal", "healthy rebuild", err)
		return cur.stats, err
	}
	gen.stats.CacheHit = true
	f.publish(gen, "heal")
	return gen.stats, nil
}
