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
// PackedUnreachable, else the table's word — the pair's exception, or
// its rule's: a held row's, or the guided base's at the pair's NCA
// level, which is the empty route for a self pair. A pass over a
// generation that serves its guided base alone reads the base without
// the exception test (lookupGuided), chosen once a batch. The resolve
// forms are passes over their own encodings around the rule
// — ResolveBatchPacked over []pair/[]word, ResolveWire over the binary
// protocol's bytes, Resolve decoding one word into an xgft.Route — all
// counted, timed and traced in one place, startPacked/endPacked.
//
// A table in serving form is a rule plus the words that differ from it.
// The rule is a pinned healthy table. S-/D-mod-k and the relabeling
// family (r-NCA-u/d) route every pair by its guide leaf and NCA level
// alone (core.GuideAscent), so their rule is a guided base of h+1 words a
// leaf — its ascent packed once per prefix length; a scheme that is not
// guided (Random, LevelWise, a loaded table) has held rows, every word.
// The exception words are the ones a reroute, an unreachable mark or an
// override made differ from the rule, held pointer-free by source and
// destination, in memory proportional to their count.
//
// A generation change costs in proportion to what it changes. Every
// generation is made by one function, derive, from three things: a base
// table in serving form, a list of override routes, and a fault view.
// The healthy table of each static scheme the fabric has installed — the
// configured one, and d-mod-k and r-NCA-u/d as they win optimize passes
// — is built once and pinned; its guided base or held rows are never
// written again, so generations share them. FailLink/FailSwitch derive
// from the serving table under a larger view: only pairs with an
// endpoint under a newly failed wire are even looked at, and only the
// routes that ride one are recomputed, as exceptions. Heal derives from
// the configured scheme's pinned table under no faults: its rule and no
// exception. An optimize swap derives from the winner's pinned table —
// Colored's is its d-mod-k fallback's guided base, with its assignments
// as overrides — under the serving view.
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
	"cmp"
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
	// An optimize pass's scoring scratch: the observed flows that have a
	// route, and those routes (scoreRoutesLocked).
	scored       pattern.Pattern // guarded by mu
	scoredRoutes []xgft.Route    // guarded by mu
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
	// keyCertified and keyExceptionWords are the generation.swap fields
	// that say what the swap cost: routes the deadlock gate checked, and
	// the words the generation holds apart from its rule.
	keyCertified       = "certified_routes"
	keyExceptionWords  = "exception_words"
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
func SwapEventKeys() []string { return []string{keyCertified, keyExceptionWords} }

func newFabricMetrics(reg *obs.Registry) *fabricMetrics {
	return &fabricMetrics{
		resolves:   reg.Counter(metricResolves, "routes served, by every resolve form", 8),
		unresolved: reg.Counter(metricUnresolved, "lookups that found no installed route", 1),
		batches:    reg.Counter(metricBatches, "resolve calls: packed and wire batches, and single resolves (batches of one)", 1),
		packedNS:   reg.Histogram(metricPackedNS, "whole-call latency of a resolve, in any form"),
		generation: reg.Gauge(metricGeneration, "serving generation sequence number"),
		swaps:      reg.Counter(metricSwaps, "generation hot-swaps installed after the initial build", 1),
		swapNS:     reg.Histogram(metricSwapBuildNS, "deriving a published generation (overrides, reroutes, the deadlock gate)"),
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
	gen, err := f.derive(start, f.configured, nil, xgft.NewView(cfg.Topo), 0, cfg.Algo.Name())
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
			keyCertified:  st.CertifiedRoutes, keyExceptionWords: st.ExceptionWords,
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
// table of a static scheme is built once and pinned, a rule and no
// exception: its guided base or held rows are never written again, so
// any number of generations share them.
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
// words a leaf. Any other scheme is routed straight into held packed
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
	tbl = &table{routes: routes{n: n, nca: f.topo.NCA(), topo: f.topo}}
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
	for leaf := 0; leaf < tbl.n; leaf++ {
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
// into one pointer-free block of packed words, the table's held rows.
func (f *Fabric) packRows(tbl *table, algo core.Algorithm) (err error) {
	n := f.topo.Leaves()
	tbl.held = make([]uint64, n*n)
	row := &pattern.Pattern{N: n, Flows: make([]pattern.Flow, n-1)}
	var routes []xgft.Route
	var arena []int
	for s := 0; s < n; s++ {
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
			tbl.held[s*n+r.Dst] = packRoute(r)
		}
	}
	return nil
}

// derive builds the next generation — the one way a generation comes
// to be. The successor serves base's routes with the override routes (in
// strict (src, dst) order) written over them, under the fault view: a
// route riding a failed wire is rerouted (core.RerouteAvoiding) or, with
// no surviving minimal path, marked unreachable. Base's routes already
// avoid base.view, so only the wires view fails beyond it can break
// one, and a minimal route crosses a wire only on its source's or its
// destination's ancestor chain: the scan visits the pairs with an
// endpoint under a newly failed wire and no others — none at all when
// view adds nothing. The successor serves base's rule, and every word
// it writes is an exception (write); no row is materialized, so a
// derive costs the scan and the words it writes. FailLink is derive over
// the serving table and a larger view, Heal is derive over the
// configured scheme's pinned table and a healthy view (no exception at
// all), and an optimize swap is derive over the winner's pinned table
// and its overrides under the serving view.
//
// The successor, generation seq, must pass certifyLocked or it is
// refused. start opens the generation's build clock (before the base
// table was pinned, when it had to be). Callers hold f.mu.
func (f *Fabric) derive(start time.Time, base *table, overrides []xgft.Route, view *xgft.View, seq uint64, algoName string) (gen *Generation, err error) {
	n := f.topo.Leaves()
	// suspect[x]: leaf x lies under a wire that failed since base's
	// routes were checked. A suspect source's words are scanned whole,
	// any other source's only at the suspect destinations; with no new
	// failure there is nothing to scan.
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
	// The words derive gives source s — its overrides, then its reroutes —
	// are written[at[s]:at[s+1]], in destination order.
	var written []exception
	at := make([]int32, n+1)
	var up [maxHeight]int // the route being checked and rerouted, decoded
	patched, unreachable := 0, base.unreachable
	for s := 0; s < n; s++ {
		start := len(written)
		for ; len(overrides) > 0 && overrides[0].Src == s; overrides = overrides[1:] {
			r := overrides[0]
			if err := r.Validate(f.topo); err != nil {
				return nil, fmt.Errorf("fabric: %s assigned an invalid route: %w", algoName, err)
			}
			if len(written) > start && r.Dst <= int(written[len(written)-1].dst) {
				return nil, fmt.Errorf("fabric: %s assigned routes out of (src, dst) order or out of range", algoName)
			}
			written = append(written, exception{int32(r.Dst), packRoute(r)})
		}
		assigned := len(written)
		scan := suspects
		if suspect != nil && suspect[s] {
			scan = all
		}
		run, k := base.run(s), 0 // base's exceptions, read in step with scan
		for _, d := range scan {
			for k < len(run) && int(run[k].dst) < d {
				k++
			}
			word := base.ruleWord(s, d)
			if k < len(run) && int(run[k].dst) == d {
				word = run[k].word
			}
			i, mine := search(written[start:assigned], d)
			if mine {
				word = written[start+i].word
			}
			if s == d || word == PackedUnreachable {
				continue
			}
			r := xgft.Route{Src: s, Dst: d, Up: AppendPackedUp(word, up[:0])}
			if view.RouteOK(r) {
				continue
			}
			moved := PackedUnreachable
			if nr, ok := core.RerouteAvoiding(view, r); ok {
				moved = packRoute(nr)
				patched++
			} else {
				unreachable++
			}
			if mine {
				written[start+i].word = moved
			} else {
				written = append(written, exception{int32(d), moved})
			}
		}
		if assigned > start && len(written) > assigned {
			// A rerouted assigned word was rewritten in place; the other
			// reroutes go between the assigned words.
			slices.SortFunc(written[start:], func(a, b exception) int { return cmp.Compare(a.dst, b.dst) })
		}
		at[s+1] = int32(len(written))
	}
	if len(overrides) > 0 {
		return nil, fmt.Errorf("fabric: %s assigned routes out of (src, dst) order or out of range", algoName)
	}
	changed := gen.write(written, at)
	gen.stats = Stats{
		Seq:            seq,
		Algo:           algoName,
		Routes:         n*(n-1) - unreachable,
		Patched:        patched,
		Unreachable:    unreachable,
		FailedWires:    view.FailedWires(),
		FailedSwitches: len(view.FailedSwitches()),
		ExceptionWords: len(gen.exc),
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

// write gives r — base's routes as derive found them — the words derive
// wrote, source s's being written[at[s]:at[s+1]] in destination order:
// each an exception where it differs from the rule, dropped where it
// equals it, in place of base's. It returns the written pairs whose word
// differs from base's.
func (r *routes) write(written []exception, at []int32) (changed [][2]int) {
	if len(written) == 0 {
		return nil
	}
	base := *r
	r.excAt, r.exc = make([]int32, r.n+1), make([]exception, 0, len(base.exc)+len(written))
	changed = make([][2]int, 0, len(written))
	for s := 0; s < r.n; s++ {
		run := base.run(s)
		for _, w := range written[at[s]:at[s+1]] {
			for ; len(run) > 0 && run[0].dst < w.dst; run = run[1:] {
				r.exc = append(r.exc, run[0])
			}
			rule := r.ruleWord(s, int(w.dst))
			was := rule
			if len(run) > 0 && run[0].dst == w.dst {
				was, run = run[0].word, run[1:]
			}
			if w.word != was {
				changed = append(changed, [2]int{s, int(w.dst)})
			}
			if w.word != rule {
				r.exc = append(r.exc, w)
			}
		}
		r.exc = append(r.exc, run...)
		r.excAt[s+1] = int32(len(r.exc))
	}
	if len(r.exc) == 0 {
		r.excAt, r.exc = nil, nil
	}
	return changed
}

// wordsChanged counts the words gen serves differently from cur: over
// one rule, the exceptions of either that the other does not hold alike;
// over two, every source's words compared.
func wordsChanged(gen, cur *Generation) (changed int) {
	var rows [2][]uint64
	if !sameRule(&gen.routes, &cur.routes) {
		rows = [2][]uint64{make([]uint64, gen.n), make([]uint64, gen.n)}
	}
	for s := 0; s < gen.n; s++ {
		if rows[0] != nil {
			a, b := gen.rowOf(s, rows[0]), cur.rowOf(s, rows[1])
			for d := range a {
				if a[d] != b[d] {
					changed++
				}
			}
			continue
		}
		a, b := gen.run(s), cur.run(s)
		changed += len(a) + len(b)
		for _, e := range a {
			if i, ok := search(b, int(e.dst)); ok {
				changed-- // a word both hold
				if b[i].word == e.word {
					changed--
				}
			}
		}
	}
	return changed
}

// sameRule reports whether a and b serve one rule: the same guided base
// or the same held rows.
func sameRule(a, b *routes) bool {
	return len(a.guided) == len(b.guided) && len(a.held) == len(b.held) &&
		(a.guided == nil || &a.guided[0] == &b.guided[0]) && (a.held == nil || &a.held[0] == &b.held[0])
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
	for i, word := range r.held {
		s, d := i/r.n, i%r.n
		if s == d || word == PackedUnreachable {
			continue
		}
		if err := checkWord(t, s, d, word); err != nil {
			return 0, err
		}
		checked++
	}
	if r.guided == nil {
		return checked, nil
	}
	for g := 0; g < r.n; g++ {
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
// the successor from the serving table under it — only routes that
// traverse a newly failed wire are recomputed, as exceptions over the
// same rule — and publishes the result. Rejected operations (bad target,
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
	// The serving table: every route avoids cur's view and was checked
	// when it was published.
	serving := &table{routes: cur.routes, view: cur.view, unreachable: cur.stats.Unreachable, checked: true}
	start := buildClock()
	gen, err := f.derive(start, serving, nil, view, cur.stats.Seq+1, cur.stats.Algo)
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
// fabric was built, so the swap serves its rule and no exception.
func (f *Fabric) Heal() (Stats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.gen.Load()
	start := buildClock()
	gen, err := f.derive(start, f.configured, nil, xgft.NewView(f.topo), cur.stats.Seq+1, f.algo.Name())
	if err != nil {
		err = fmt.Errorf("fabric: healthy table rejected: %w", err)
		f.reject("heal", "healthy rebuild", err)
		return cur.stats, err
	}
	gen.stats.CacheHit = true
	f.publish(gen, "heal")
	return gen.stats, nil
}
