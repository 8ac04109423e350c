// Package trace is the causal-tracing layer over internal/obs:
// request-scoped spans with 16-byte trace ids, parent links and a
// bounded attribute set; keyed-deterministic head sampling (the
// decision is a pure function of the trace id, so every layer of one
// request — client, wire server, fabric — agrees without
// coordination); a lock-free flight recorder retaining the last N
// recorded spans; and an anomaly trigger that hands budget breaches
// and optimizer flip-flops to a blackbox dumper.
//
// What reaches the recorder is two rules. Control-plane spans
// (StartSpan: fabric.optimize, sched.place, evaluate.score) record at
// any sampling rate. Per-request data-plane spans (StartRequest:
// wire.request, fabric.resolve_batch_packed) record only for sampled
// traces, or, when the tracer has a latency budget, when they breach
// it. An unsampled request under no budget does no tracing work at all
// — no clock read, no span id, no recorder write — so the recorder holds
// sampled traces, budget breaches and the control plane's recent past
// rather than the last fraction of a millisecond of resolve frames.
//
// The discipline mirrors internal/obs: naming (interning a span name
// or attribute key) allocates once and takes a mutex; starting and
// ending spans afterwards is a handful of atomic stores — zero
// allocations, no locks — so spans can live inside the resolve hot
// path the bench gate defends. Trace ids come from the keyed
// splitmix64 stream (internal/hashutil), never math/rand, so a fixed
// coordinate tuple maps to the same trace id — and the same sampling
// verdict — on every run.
package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hashutil"
	"repro/internal/obs"
)

// MaxAttrs bounds the attributes one span can carry; later SetAttr
// calls are dropped. The bound keeps the span value and the flight
// recorder slot fixed-size.
const MaxAttrs = 4

// FlagSampled marks a trace selected by head sampling: child spans
// are created for it on every layer.
const FlagSampled = uint8(1)

// ReasonBudget is the anomaly reason for a span exceeding its latency
// budget; ReasonFlipFlop for an optimizer decision flipping twice
// within the detector window.
const (
	ReasonBudget   = "budget"
	ReasonFlipFlop = "flipflop"
)

// Metric names, constants so repolint's obskeys pass keeps the
// inventory tied to the code.
const (
	metricSpans     = "trace_spans_total"
	metricSampled   = "trace_spans_sampled_total"
	metricAnomalies = "trace_anomalies_total"
	metricDumps     = "trace_blackbox_dumps_total"
)

// TraceID is the 16-byte trace identifier, derived from request
// coordinates through keyed splitmix64.
type TraceID struct {
	Hi, Lo uint64
}

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return fmt.Sprintf("%016x%016x", id.Hi, id.Lo) }

// SpanContext is the propagated part of a span: enough to parent a
// child locally or on the far side of a wire frame.
type SpanContext struct {
	Trace TraceID
	Span  uint64 // 0 at the root, before any span has started
	Flags uint8
}

// Valid reports whether the context carries a trace id.
//
//repro:hotpath
func (sc SpanContext) Valid() bool { return sc.Trace != TraceID{} }

// Sampled reports whether head sampling selected this trace.
//
//repro:hotpath
func (sc SpanContext) Sampled() bool { return sc.Flags&FlagSampled != 0 }

// Config parameterizes a Tracer.
type Config struct {
	// Clock returns monotonic nanoseconds. nil uses a monotonic reading
	// anchored at construction. Tests inject fixed sequences to make
	// span timings — and with them blackbox bundles — byte-identical
	// across runs.
	Clock func() int64
	// Key seeds the trace-id derivation and the sampling hash, so two
	// deployments can sample disjoint request subsets. 0 selects a
	// fixed default.
	Key uint64
	// SampleNum/SampleDen is the head-sampling rate as a rational:
	// 1/1024 samples one trace in 1024, 0/x none, x/x (or more) all.
	// The verdict is a pure function of (Key, trace id), so every layer
	// holding the same rate agrees.
	SampleNum, SampleDen uint64
	// RecorderCap is the flight-recorder capacity in spans, rounded up
	// to a power of two; <= 0 selects 4096.
	RecorderCap int
	// Budget is the per-span latency budget; spans lasting longer
	// trigger the anomaly hook. 0 disables it.
	Budget time.Duration
	// AnomalyCooldown is the minimum spacing between OnAnomaly
	// invocations (anomalies inside the window are still counted).
	// 0 selects 1s; negative disables the cooldown.
	AnomalyCooldown time.Duration
	// OnAnomaly receives budget breaches and reported anomalies,
	// subject to the cooldown. Typically Blackbox.Dump. Called
	// synchronously from Span.End — keep it off the steady state.
	OnAnomaly func(Anomaly)
	// Metrics, when set, registers the trace_* instruments.
	Metrics *obs.Registry
}

// Anomaly is one anomaly-trigger firing: the reason and, for budget
// breaches, the offending span.
type Anomaly struct {
	Reason string     `json:"reason"`
	Span   SpanRecord `json:"span"`
}

// tracerMetrics is the tracer's instrument set.
type tracerMetrics struct {
	spans     *obs.Counter
	sampled   *obs.Counter
	anomalies *obs.Counter
}

// nameTable is the immutable intern table: readers load it through
// one atomic pointer and index with plain map/slice reads (no
// boxing, no locks); writers copy-on-write under the tracer mutex.
type nameTable struct {
	ids  map[string]uint32
	strs []string
	span []bool // strs[i] was interned as a span name (vs attr key)
}

// Tracer mints spans. The zero *Tracer (nil) is a valid no-op: every
// method short-circuits, so instrumented packages need no nil checks
// at call sites.
type Tracer struct {
	clock    func() int64
	key      uint64
	num, den uint64
	budget   int64 // per-span budget, ns; 0 none
	cooldown int64 // ns between OnAnomaly firings; <= 0 none

	rec       *Recorder
	onAnomaly func(Anomaly)
	m         *tracerMetrics

	mu      sync.Mutex // serializes nameTable copy-on-write
	names   atomic.Pointer[nameTable]
	autoSeq atomic.Uint64 // trace-id fallback for parentless spans

	lastAnomaly atomic.Int64
	anomalies   atomic.Uint64
}

// New builds a tracer. Sampling gates per-request spans (StartRequest,
// StartChild); control-plane spans (StartSpan) record at any rate.
func New(cfg Config) *Tracer {
	t := &Tracer{
		clock:     cfg.Clock,
		key:       cfg.Key,
		num:       cfg.SampleNum,
		den:       cfg.SampleDen,
		budget:    int64(cfg.Budget),
		onAnomaly: cfg.OnAnomaly,
		rec:       newRecorder(cfg.RecorderCap),
	}
	if t.clock == nil {
		base := time.Now()
		t.clock = func() int64 { return int64(time.Since(base)) }
	}
	if t.key == 0 {
		t.key = 0x7ace1d5eed
	}
	if t.den == 0 {
		t.den = 1
	}
	switch {
	case cfg.AnomalyCooldown == 0:
		t.cooldown = int64(time.Second)
	case cfg.AnomalyCooldown > 0:
		t.cooldown = int64(cfg.AnomalyCooldown)
	}
	// Arm the cooldown so the very first anomaly fires even on clocks
	// that start near zero.
	t.lastAnomaly.Store(-t.cooldown)
	t.names.Store(&nameTable{ids: make(map[string]uint32)})
	if cfg.Metrics != nil {
		t.m = &tracerMetrics{
			spans:     cfg.Metrics.Counter(metricSpans, "spans recorded: sampled traces, control-plane spans and unsampled requests that breached their budget", 8),
			sampled:   cfg.Metrics.Counter(metricSampled, "completed spans belonging to sampled traces", 1),
			anomalies: cfg.Metrics.Counter(metricAnomalies, "anomaly triggers (budget breaches and reported anomalies)", 1),
		}
	}
	return t
}

// ParseRate parses a -trace-sample style rational: "0" (off), "1"
// (everything), or "num/den".
func ParseRate(s string) (num, den uint64, err error) {
	numS, denS, ok := strings.Cut(s, "/")
	num, err = strconv.ParseUint(strings.TrimSpace(numS), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("trace: bad sample rate %q: %w", s, err)
	}
	den = 1
	if ok {
		den, err = strconv.ParseUint(strings.TrimSpace(denS), 10, 64)
		if err != nil || den == 0 {
			return 0, 0, fmt.Errorf("trace: bad sample rate %q: denominator must be a positive integer", s)
		}
	}
	return num, den, nil
}

// SampleRate returns the tracer's head-sampling rational.
func (t *Tracer) SampleRate() (num, den uint64) {
	if t == nil {
		return 0, 1
	}
	return t.num, t.den
}

// mutate applies fn to a copy of the name table and publishes it.
func (t *Tracer) mutate(fn func(nt *nameTable)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.names.Load()
	nt := &nameTable{
		ids:  make(map[string]uint32, len(old.ids)+1),
		strs: append([]string(nil), old.strs...),
		span: append([]bool(nil), old.span...),
	}
	for k, v := range old.ids {
		nt.ids[k] = v
	}
	fn(nt)
	t.names.Store(nt)
}

// internLocked returns s's id, appending it on first use.
func (nt *nameTable) internLocked(s string, isSpan bool) uint32 {
	if id, ok := nt.ids[s]; ok {
		if isSpan {
			nt.span[id] = true
		}
		return id
	}
	id := uint32(len(nt.strs))
	nt.ids[s] = id
	nt.strs = append(nt.strs, s)
	nt.span = append(nt.span, isSpan)
	return id
}

// intern is the cold first-use path; every later start takes the
// lock-free map hit in StartSpan.
func (t *Tracer) intern(s string, isSpan bool) uint32 {
	var id uint32
	t.mutate(func(nt *nameTable) { id = nt.internLocked(s, isSpan) })
	return id
}

// Names returns every interned span name, sorted — the machine-read
// side of the docs/ARCHITECTURE.md span inventory.
func (t *Tracer) Names() []string {
	if t == nil {
		return nil
	}
	tbl := t.names.Load()
	out := make([]string, 0, len(tbl.strs))
	for i, s := range tbl.strs {
		if tbl.span[i] {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Root derives a root span context from request coordinates: the
// trace id is keyed splitmix64 over (key, hi, lo), and the sampling
// verdict is decided here, from that id, once per trace.
//
//repro:hotpath
func (t *Tracer) Root(hi, lo uint64) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	h := hashutil.Splitmix64(t.key ^ hi)
	l := hashutil.Splitmix64(h ^ lo)
	sc := SpanContext{Trace: TraceID{Hi: h, Lo: l}}
	if t.sampleID(sc.Trace) {
		sc.Flags = FlagSampled
	}
	return sc
}

// sampleID is the head-sampling rule: hash the trace id under the
// tracer key and keep the fraction num/den of the hash space.
//
//repro:hotpath
func (t *Tracer) sampleID(id TraceID) bool {
	if t.num == 0 {
		return false
	}
	if t.num >= t.den {
		return true
	}
	return hashutil.Splitmix64(t.key^id.Lo^bits.RotateLeft64(id.Hi, 31))%t.den < t.num
}

// spanID derives a child span id deterministically from its parent
// coordinates, name and start time.
//
//repro:hotpath
func spanID(parent SpanContext, nameID uint32, start int64) uint64 {
	return hashutil.Splitmix64(parent.Trace.Lo ^ parent.Span ^ uint64(nameID)<<32 ^ uint64(start))
}

// StartSpan starts a control-plane span under parent (an invalid
// parent starts a new auto-keyed trace). It lands in the flight
// recorder at End whatever the sampling verdict: an Optimize pass, a
// placement or a score is rare enough that its recent past is always
// worth keeping. Per-request spans start through StartRequest. Zero
// allocations after the name's first use.
//
//repro:hotpath
func (t *Tracer) StartSpan(parent SpanContext, name string) Span {
	if t == nil {
		return Span{}
	}
	if !parent.Valid() {
		parent = t.localRoot()
	}
	return t.start(parent, t.nameID(name))
}

// StartRequest is the start rule for per-request data-plane spans (the
// wire server's wire.request, the fabric's resolve span). The sampling
// verdict is parent's — a v2 client's flags or a Root verdict — or, for
// an invalid parent, that of a local root minted here. A sampled
// request starts an ordinary span. An unsampled one does no tracing
// work: the returned span reads no clock, takes no span id, interns no
// attribute and writes nothing at End; its Context is parent, so
// callees join the same (unsampled) trace instead of minting a root of
// their own, and a trace is always complete or absent. The one
// exception is the latency budget: when the tracer has one, the
// unsampled span is timed, and it is recorded — and fires the anomaly —
// only if it breaches.
//
//repro:hotpath
func (t *Tracer) StartRequest(parent SpanContext, name string) Span {
	if t == nil {
		return Span{}
	}
	if !parent.Valid() {
		parent = t.localRoot()
	}
	if parent.Flags&FlagSampled != 0 {
		return t.start(parent, t.nameID(name))
	}
	if t.budget <= 0 {
		return Span{sc: parent}
	}
	sp := t.start(parent, t.nameID(name))
	sp.watch = true
	return sp
}

// localRoot mints the root of a trace started by a parentless span.
//
//repro:hotpath
func (t *Tracer) localRoot() SpanContext { return t.Root(0xa070, t.autoSeq.Add(1)) }

// nameID returns a span name's interned id.
//
//repro:hotpath
func (t *Tracer) nameID(name string) uint32 {
	id, ok := t.names.Load().ids[name]
	if !ok {
		id = t.intern(name, true) //lint:allow hotpath a span name interns once, on first use; every later start takes the lock-free map hit above
	}
	return id
}

// start opens a span named id under parent: the clock read and the
// span id.
//
//repro:hotpath
func (t *Tracer) start(parent SpanContext, id uint32) Span {
	start := t.clock() //lint:allow hotpath the clock is a seam (tests inject fixed clocks for byte-identical bundles); one dynamic call per span
	return Span{
		tr:     t,
		sc:     SpanContext{Trace: parent.Trace, Span: spanID(parent, id, start), Flags: parent.Flags},
		parent: parent.Span,
		nameID: id,
		start:  start,
	}
}

// StartChild starts a fine-grained child span only when the parent's
// trace is sampled; otherwise it returns the no-op zero Span. This is
// the 0-alloc sampling decision the hot paths pay per child.
//
//repro:hotpath
func (t *Tracer) StartChild(parent SpanContext, name string) Span {
	if t == nil || parent.Flags&FlagSampled == 0 {
		return Span{}
	}
	return t.StartSpan(parent, name)
}

// attr is one interned attribute.
type attr struct {
	key uint32
	val int64
}

// Span is one in-flight operation. The zero Span is a no-op, so
// conditional instrumentation needs no branches at End. Spans are
// values; do not copy one after SetAttr/End.
type Span struct {
	tr     *Tracer
	sc     SpanContext
	parent uint64
	nameID uint32
	nattrs uint8
	// watch marks an unsampled request span timed only for its budget:
	// End records it only if it breached.
	watch bool
	start int64
	attrs [MaxAttrs]attr
}

// Context returns the span's propagatable context (its own id as the
// parent link for children).
//
//repro:hotpath
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Sampled reports whether the span belongs to a sampled trace.
//
//repro:hotpath
func (s *Span) Sampled() bool { return s != nil && s.sc.Flags&FlagSampled != 0 }

// SetAttr attaches an integer attribute; beyond MaxAttrs it is
// dropped. Keys intern once, like span names.
//
//repro:hotpath
func (s *Span) SetAttr(key string, val int64) {
	if s == nil || s.tr == nil || int(s.nattrs) >= MaxAttrs {
		return
	}
	id, ok := s.tr.names.Load().ids[key]
	if !ok {
		id = s.tr.intern(key, false) //lint:allow hotpath an attribute key interns once, on first use
	}
	s.attrs[s.nattrs] = attr{key: id, val: val}
	s.nattrs++
}

// End completes the span: the budget check, then — for every span but
// an unsampled request within its budget — one flight-recorder write
// and the span counters, and for a breach the anomaly.
//
//repro:hotpath
func (s *Span) End() {
	if s == nil {
		return // a nil *Span is a no-op, like the zero Span
	}
	t := s.tr
	if t == nil {
		return
	}
	end := t.clock() //lint:allow hotpath the clock is a seam (tests inject fixed clocks for byte-identical bundles); one dynamic call per span
	dur := end - s.start
	breach := t.budget > 0 && dur >= t.budget
	if s.watch && !breach {
		return
	}
	raw := s.raw(dur)
	t.rec.write(&raw)
	if t.m != nil {
		t.m.spans.AddAt(s.sc.Span, 1)
		if s.sc.Flags&FlagSampled != 0 {
			t.m.sampled.Inc()
		}
	}
	if breach {
		t.spanAnomaly(raw) //lint:allow hotpath the breach path is rare by construction (budget exceeded) and off the steady state
	}
}

// raw packs the span into its fixed recorder form.
//
//repro:hotpath
func (s *Span) raw(dur int64) rawSpan {
	return rawSpan{
		trHi:   s.sc.Trace.Hi,
		trLo:   s.sc.Trace.Lo,
		span:   s.sc.Span,
		parent: s.parent,
		meta:   uint64(s.nameID)<<32 | uint64(s.nattrs)<<8 | uint64(s.sc.Flags),
		start:  s.start,
		dur:    dur,
		attrs:  s.attrs,
	}
}

// claimAnomaly applies the cooldown: one OnAnomaly per window.
func (t *Tracer) claimAnomaly() bool {
	if t.cooldown <= 0 {
		return true
	}
	now := t.clock()
	last := t.lastAnomaly.Load()
	return now-last >= t.cooldown && t.lastAnomaly.CompareAndSwap(last, now)
}

// spanAnomaly handles a budget breach: count it, then fire the hook
// unless cooled down.
func (t *Tracer) spanAnomaly(raw rawSpan) {
	t.anomalies.Add(1)
	if t.m != nil {
		t.m.anomalies.Inc()
	}
	if t.onAnomaly == nil || !t.claimAnomaly() {
		return
	}
	t.onAnomaly(Anomaly{Reason: ReasonBudget, Span: t.decode(t.names.Load(), &raw)})
}

// ReportAnomaly fires the anomaly hook for a non-span trigger (the
// optimizer flip-flop detector), subject to the same cooldown.
func (t *Tracer) ReportAnomaly(reason string) {
	if t == nil {
		return
	}
	t.anomalies.Add(1)
	if t.m != nil {
		t.m.anomalies.Inc()
	}
	if t.onAnomaly == nil || !t.claimAnomaly() {
		return
	}
	t.onAnomaly(Anomaly{Reason: reason})
}

// Anomalies returns the total anomaly triggers (including cooled-down
// ones).
func (t *Tracer) Anomalies() uint64 {
	if t == nil {
		return 0
	}
	return t.anomalies.Load()
}

// SpanCount returns the number of spans recorded since construction
// (the flight recorder retains the most recent capacity of them);
// unsampled requests within their budget are not among them.
func (t *Tracer) SpanCount() uint64 {
	if t == nil {
		return 0
	}
	return t.rec.count()
}

// Spans decodes the most recent n recorded spans from the flight
// recorder, oldest first; n <= 0 returns everything retained.
func (t *Tracer) Spans(n int) []SpanRecord {
	if t == nil {
		return nil
	}
	raws := t.rec.snapshot(n)
	tbl := t.names.Load()
	out := make([]SpanRecord, 0, len(raws))
	for i := range raws {
		out = append(out, t.decode(tbl, &raws[i]))
	}
	return out
}

// decode renders one raw recorder slot as a SpanRecord.
func (t *Tracer) decode(tbl *nameTable, raw *rawSpan) SpanRecord {
	nameID := uint32(raw.meta >> 32)
	nattrs := int(raw.meta >> 8 & 0xff)
	flags := uint8(raw.meta & 0xff)
	rec := SpanRecord{
		TraceID: TraceID{Hi: raw.trHi, Lo: raw.trLo}.String(),
		SpanID:  fmt.Sprintf("%016x", raw.span),
		Name:    "?",
		Start:   raw.start,
		Dur:     raw.dur,
		Sampled: flags&FlagSampled != 0,
	}
	if raw.parent != 0 {
		rec.Parent = fmt.Sprintf("%016x", raw.parent)
	}
	if int(nameID) < len(tbl.strs) {
		rec.Name = tbl.strs[nameID]
	}
	if nattrs > 0 {
		rec.Attrs = make(map[string]int64, nattrs)
		for i := 0; i < nattrs && i < MaxAttrs; i++ {
			key := "?"
			if int(raw.attrs[i].key) < len(tbl.strs) {
				key = tbl.strs[raw.attrs[i].key]
			}
			rec.Attrs[key] = raw.attrs[i].val
		}
	}
	return rec
}
