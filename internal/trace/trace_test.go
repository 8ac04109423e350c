package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fixedClock returns a deterministic clock advancing step ns per
// call.
func fixedClock(step int64) func() int64 {
	var now int64
	return func() int64 {
		now += step
		return now
	}
}

// finish ends a span returned by value, for one-line call sites.
func finish(s Span) { s.End() }

func TestRootDeterministicAndKeyed(t *testing.T) {
	a := New(Config{Key: 7, SampleNum: 1, SampleDen: 4, RecorderCap: 8})
	b := New(Config{Key: 7, SampleNum: 1, SampleDen: 4, RecorderCap: 8})
	c := New(Config{Key: 8, SampleNum: 1, SampleDen: 4, RecorderCap: 8})
	diffKey := false
	for i := uint64(0); i < 64; i++ {
		sa, sb, sc := a.Root(3, i), b.Root(3, i), c.Root(3, i)
		if sa != sb {
			t.Fatalf("Root(3,%d) differs across tracers with equal keys: %+v vs %+v", i, sa, sb)
		}
		if !sa.Valid() {
			t.Fatalf("Root(3,%d) produced an invalid context", i)
		}
		if sa.Trace != sc.Trace {
			diffKey = true
		}
	}
	if !diffKey {
		t.Error("trace ids identical under different keys; derivation is not keyed")
	}
}

func TestSamplingRational(t *testing.T) {
	tr := New(Config{SampleNum: 1, SampleDen: 4, RecorderCap: 8})
	sampled := 0
	const n = 4096
	for i := uint64(0); i < n; i++ {
		if tr.Root(0, i).Sampled() {
			sampled++
		}
	}
	if sampled < n/8 || sampled > n/2 {
		t.Errorf("1/4 sampling selected %d of %d roots", sampled, n)
	}
	if num, den := tr.SampleRate(); num != 1 || den != 4 {
		t.Errorf("SampleRate() = %d/%d, want 1/4", num, den)
	}

	off := New(Config{SampleNum: 0, SampleDen: 1, RecorderCap: 8})
	all := New(Config{SampleNum: 9, SampleDen: 4, RecorderCap: 8})
	for i := uint64(0); i < 64; i++ {
		if off.Root(0, i).Sampled() {
			t.Fatal("0-rate tracer sampled a trace")
		}
		if !all.Root(0, i).Sampled() {
			t.Fatal("num>=den tracer skipped a trace")
		}
	}
}

// The head-sampling promise: the verdict is a function of the trace
// id, so a second tracer with the same key and rate — another layer
// of the same deployment — agrees per trace.
func TestSamplingConsistentAcrossLayers(t *testing.T) {
	client := New(Config{Key: 42, SampleNum: 3, SampleDen: 16, RecorderCap: 8})
	server := New(Config{Key: 42, SampleNum: 3, SampleDen: 16, RecorderCap: 8})
	for i := uint64(0); i < 512; i++ {
		id := client.Root(9, i).Trace
		if client.sampleID(id) != server.sampleID(id) {
			t.Fatalf("layers disagree on trace %v", id)
		}
	}
}

func TestParseRate(t *testing.T) {
	cases := []struct {
		in       string
		num, den uint64
		ok       bool
	}{
		{"0", 0, 1, true},
		{"1", 1, 1, true},
		{"1/1024", 1, 1024, true},
		{" 3 / 7 ", 3, 7, true},
		{"1/0", 0, 0, false},
		{"x", 0, 0, false},
		{"-1/2", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, c := range cases {
		num, den, err := ParseRate(c.in)
		if (err == nil) != c.ok || num != c.num || (c.ok && den != c.den) {
			t.Errorf("ParseRate(%q) = %d/%d, %v; want %d/%d ok=%v", c.in, num, den, err, c.num, c.den, c.ok)
		}
	}
}

func TestSpanRecordingAndParentLinks(t *testing.T) {
	tr := New(Config{Clock: fixedClock(10), SampleNum: 1, SampleDen: 1, RecorderCap: 32})
	root := tr.Root(1, 2)
	parent := tr.StartSpan(root, "test.parent")
	child := tr.StartChild(parent.Context(), "test.child")
	child.SetAttr("items", 5)
	child.End()
	parent.End()

	recs := tr.Spans(0)
	if len(recs) != 2 {
		t.Fatalf("Spans(0) = %d records, want 2", len(recs))
	}
	// Oldest first: the child ended before the parent.
	c, p := recs[0], recs[1]
	if c.Name != "test.child" || p.Name != "test.parent" {
		t.Fatalf("names = %q, %q", c.Name, p.Name)
	}
	if c.TraceID != p.TraceID {
		t.Errorf("trace ids differ: %s vs %s", c.TraceID, p.TraceID)
	}
	if c.Parent != p.SpanID {
		t.Errorf("child parent = %s, want parent span id %s", c.Parent, p.SpanID)
	}
	if p.Parent != "" {
		t.Errorf("root-level span has parent %q", p.Parent)
	}
	if !c.Sampled || !p.Sampled {
		t.Error("1/1 sampled trace recorded as unsampled")
	}
	if c.Attrs["items"] != 5 {
		t.Errorf("child attrs = %v", c.Attrs)
	}
	if c.Dur != 10 {
		t.Errorf("child dur = %d, want 10 (fixed clock, one step)", c.Dur)
	}
	if tr.SpanCount() != 2 {
		t.Errorf("SpanCount = %d", tr.SpanCount())
	}
}

// Control-plane spans (StartSpan) record whatever the verdict.
func TestUnsampledStillHitsFlightRecorder(t *testing.T) {
	tr := New(Config{SampleNum: 0, SampleDen: 1, RecorderCap: 16})
	s := tr.StartSpan(tr.Root(0, 1), "test.coarse")
	s.End()
	recs := tr.Spans(0)
	if len(recs) != 1 || recs[0].Name != "test.coarse" || recs[0].Sampled {
		t.Fatalf("flight recorder after unsampled span: %+v", recs)
	}
	// Children of unsampled traces are no-ops and never recorded.
	c := tr.StartChild(tr.Root(0, 1), "test.fine")
	c.End()
	if got := tr.SpanCount(); got != 1 {
		t.Errorf("SpanCount after unsampled child = %d, want 1", got)
	}
}

// TestStartRequestRule pins the data-plane start rule. Unsampled: no
// clock read, nothing recorded, the root handed down so a callee joins
// it rather than minting its own, and no allocation. Sampled: a span
// like StartSpan's. Unsampled under a budget: timed, and recorded —
// with the anomaly — only when it breaches.
func TestStartRequestRule(t *testing.T) {
	var now int64
	reads := 0
	clock := func() int64 { reads++; return now }
	var fired []Anomaly
	reg := obs.NewRegistry()
	tr := New(Config{Clock: clock, SampleNum: 0, SampleDen: 1, RecorderCap: 16, Metrics: reg,
		AnomalyCooldown: -1, OnAnomaly: func(a Anomaly) { fired = append(fired, a) }})

	root := tr.Root(3, 4)
	req := tr.StartRequest(root, "test.req")
	if req.Context() != root {
		t.Errorf("unsampled request context = %+v, want its root %+v", req.Context(), root)
	}
	inner := tr.StartRequest(req.Context(), "test.batch")
	inner.SetAttr("pairs", 16)
	inner.End()
	req.SetAttr("pairs", 16)
	req.End()
	local := tr.StartRequest(SpanContext{}, "test.batch")
	if !local.Context().Valid() || local.Sampled() {
		t.Errorf("zero parent: context %+v, want a valid unsampled local root", local.Context())
	}
	local.End()
	if reads != 0 || tr.SpanCount() != 0 || reg.Snapshot()[metricSpans] != 0 {
		t.Errorf("unsampled requests: %d clock reads, %d spans recorded, want none", reads, tr.SpanCount())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s := tr.StartRequest(root, "test.req")
		s.SetAttr("pairs", 16)
		s.End()
	}); allocs != 0 {
		t.Errorf("unsampled request: %v allocs, want 0", allocs)
	}

	// Under a budget: within it nothing is recorded; a breach is, and
	// fires. test.batch ends within it and stays free.
	tr = New(Config{Clock: clock, SampleNum: 0, SampleDen: 1, RecorderCap: 16, Budget: 15,
		AnomalyCooldown: -1, OnAnomaly: func(a Anomaly) { fired = append(fired, a) }})
	for _, dur := range []int64{5, 20} {
		req := tr.StartRequest(root, "test.req")
		inner := tr.StartRequest(req.Context(), "test.batch")
		inner.End()
		now += dur
		req.SetAttr("pairs", dur)
		req.End()
	}
	recs := tr.Spans(0)
	if len(recs) != 1 || recs[0].Name != "test.req" || recs[0].Dur != 20 || recs[0].Sampled || recs[0].Attrs["pairs"] != 20 {
		t.Fatalf("recorder after one breach and one pass = %+v", recs)
	}
	if recs[0].TraceID != root.Trace.String() || recs[0].Parent != "" {
		t.Errorf("breach record trace %s parent %q, want the root's trace, no parent", recs[0].TraceID, recs[0].Parent)
	}
	if len(fired) != 1 || fired[0].Reason != ReasonBudget || fired[0].Span.Name != "test.req" {
		t.Errorf("anomalies = %+v, want one budget breach of test.req", fired)
	}

	// Sampled: recorded at End, parent-linked, like StartSpan.
	all := New(Config{Clock: fixedClock(10), SampleNum: 1, SampleDen: 1, RecorderCap: 16})
	sroot := all.Root(3, 4)
	sreq := all.StartRequest(sroot, "test.req")
	sinner := all.StartRequest(sreq.Context(), "test.batch")
	sinner.End()
	sreq.End()
	recs = all.Spans(0)
	if len(recs) != 2 || recs[0].Name != "test.batch" || recs[1].Name != "test.req" ||
		recs[0].Parent != recs[1].SpanID || !recs[0].Sampled || recs[1].TraceID != sroot.Trace.String() {
		t.Errorf("sampled requests recorded %+v", recs)
	}
}

func TestFlightRecorderRetainsLastN(t *testing.T) {
	tr := New(Config{RecorderCap: 8, SampleNum: 1, SampleDen: 1})
	for i := 0; i < 20; i++ {
		s := tr.StartSpan(tr.Root(0, uint64(i)), "test.span")
		s.SetAttr("i", int64(i))
		s.End()
	}
	recs := tr.Spans(0)
	if len(recs) != 8 {
		t.Fatalf("retained %d spans, want 8", len(recs))
	}
	for k, r := range recs {
		if want := int64(12 + k); r.Attrs["i"] != want {
			t.Errorf("recs[%d] i = %d, want %d (oldest first)", k, r.Attrs["i"], want)
		}
	}
	if recs2 := tr.Spans(3); len(recs2) != 3 || recs2[2].Attrs["i"] != 19 {
		t.Errorf("Spans(3) = %+v", recs2)
	}
}

func TestAttrOverflowDropped(t *testing.T) {
	tr := New(Config{RecorderCap: 8})
	s := tr.StartSpan(tr.Root(0, 1), "test.span")
	for i := 0; i < MaxAttrs+3; i++ {
		s.SetAttr("k"+string(rune('a'+i)), int64(i))
	}
	s.End()
	recs := tr.Spans(0)
	if len(recs) != 1 || len(recs[0].Attrs) != MaxAttrs {
		t.Fatalf("attrs = %v, want exactly %d", recs[0].Attrs, MaxAttrs)
	}
}

func TestNamesInventory(t *testing.T) {
	tr := New(Config{RecorderCap: 8})
	s := tr.StartSpan(tr.Root(0, 1), "test.b")
	s.SetAttr("attrkey", 1)
	s.End()
	finish(tr.StartSpan(tr.Root(0, 2), "test.a"))
	got := tr.Names()
	want := []string{"test.a", "test.b"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v (attr keys excluded)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestBudgetAnomalyAndCooldown(t *testing.T) {
	var mu sync.Mutex
	var fired []Anomaly
	tr := New(Config{
		Clock:           fixedClock(100),
		RecorderCap:     16,
		Budget:          50 * time.Nanosecond,
		AnomalyCooldown: 10 * time.Microsecond,
		OnAnomaly: func(a Anomaly) {
			mu.Lock()
			fired = append(fired, a)
			mu.Unlock()
		},
	})
	// Every span lasts 100ns under the fixed clock: over the 50ns
	// default budget, so each End is an anomaly; the cooldown lets only
	// the first through until 10us of clock passes.
	for i := 0; i < 5; i++ {
		finish(tr.StartSpan(tr.Root(0, uint64(i)), "test.slow"))
	}
	if tr.Anomalies() != 5 {
		t.Errorf("Anomalies() = %d, want 5 (cooled-down ones still count)", tr.Anomalies())
	}
	if len(fired) != 1 {
		t.Fatalf("OnAnomaly fired %d times, want 1 (cooldown)", len(fired))
	}
	a := fired[0]
	if a.Reason != ReasonBudget || a.Span.Name != "test.slow" || a.Span.Dur != 100 {
		t.Errorf("anomaly = %+v", a)
	}

	// Under a longer budget the same spans stop breaching.
	roomy := New(Config{Clock: fixedClock(100), RecorderCap: 16, Budget: time.Millisecond})
	finish(roomy.StartSpan(roomy.Root(0, 99), "test.slow"))
	if roomy.Anomalies() != 0 {
		t.Error("span within its budget still flagged")
	}
}

func TestReportAnomaly(t *testing.T) {
	var got []string
	tr := New(Config{AnomalyCooldown: -1, RecorderCap: 8,
		OnAnomaly: func(a Anomaly) { got = append(got, a.Reason) }})
	tr.ReportAnomaly(ReasonFlipFlop)
	tr.ReportAnomaly(ReasonFlipFlop)
	if len(got) != 2 || got[0] != ReasonFlipFlop {
		t.Errorf("ReportAnomaly hook calls = %v", got)
	}
}

func TestNilTracerAndZeroSpanAreNoops(t *testing.T) {
	var tr *Tracer
	if sc := tr.Root(1, 2); sc.Valid() {
		t.Error("nil tracer minted a root")
	}
	s := tr.StartSpan(SpanContext{}, "x")
	s.SetAttr("k", 1)
	s.End()
	c := tr.StartChild(SpanContext{}, "x")
	c.End()
	tr.ReportAnomaly("x")
	if tr.Names() != nil || tr.Spans(1) != nil || tr.SpanCount() != 0 || tr.Anomalies() != 0 {
		t.Error("nil tracer leaked state")
	}
	if num, den := tr.SampleRate(); num != 0 || den != 1 {
		t.Errorf("nil SampleRate = %d/%d", num, den)
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{Metrics: reg, SampleNum: 1, SampleDen: 1, RecorderCap: 8, Budget: time.Nanosecond,
		Clock: fixedClock(5), AnomalyCooldown: -1})
	finish(tr.StartSpan(tr.Root(0, 1), "test.span"))
	snap := reg.Snapshot()
	if snap[metricSpans] != 1 || snap[metricSampled] != 1 || snap[metricAnomalies] != 1 {
		t.Errorf("snapshot = spans %v sampled %v anomalies %v",
			snap[metricSpans], snap[metricSampled], snap[metricAnomalies])
	}
}

func TestFlipDetector(t *testing.T) {
	d := NewFlipDetector(4)
	seq := []struct {
		outcome bool
		want    bool
	}{
		{false, false}, // first note establishes state
		{false, false},
		{true, false}, // first flip
		{false, true}, // second flip within window: anomaly
		{false, false},
	}
	for i, s := range seq {
		if got := d.Note(s.outcome); got != s.want {
			t.Fatalf("note %d (%v): Note = %v, want %v", i, s.outcome, got, s.want)
		}
	}

	// Flips spaced beyond the window do not trigger.
	d2 := NewFlipDetector(2)
	d2.Note(false)
	d2.Note(true) // flip 1
	d2.Note(true)
	d2.Note(true)
	if d2.Note(false) { // flip 2, three notes later: outside window
		t.Error("flips outside the window triggered")
	}
	var nilDet *FlipDetector
	if nilDet.Note(true) {
		t.Error("nil detector triggered")
	}
}

func TestBlackboxDumpAndList(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	jnl := obs.NewJournal(8, nil)
	jnl.Record("test.event", time.Millisecond, map[string]any{"k": 1})
	tr := New(Config{Clock: fixedClock(7), SampleNum: 1, SampleDen: 1, RecorderCap: 16, Metrics: reg})
	finish(tr.StartSpan(tr.Root(0, 1), "test.span"))
	bb := &Blackbox{Dir: dir, Tracer: tr, Journal: jnl, Metrics: reg}

	path, err := bb.Dump("manual")
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading bundle: %v", err)
	}
	var bundle Bundle
	if err := json.Unmarshal(data, &bundle); err != nil {
		t.Fatalf("bundle does not parse: %v", err)
	}
	if bundle.Seq != 1 || bundle.Reason != "manual" {
		t.Errorf("bundle header = %+v", bundle)
	}
	if len(bundle.Spans) != 1 || bundle.Spans[0].Name != "test.span" {
		t.Errorf("bundle spans = %+v", bundle.Spans)
	}
	if len(bundle.Events) != 1 || bundle.Events[0].Type != "test.event" {
		t.Errorf("bundle events = %+v", bundle.Events)
	}
	if bundle.Metrics[metricSpans] != 1 {
		t.Errorf("bundle metrics = %v", bundle.Metrics)
	}

	if _, err := bb.Dump("again"); err != nil {
		t.Fatalf("second Dump: %v", err)
	}
	names, err := bb.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != 2 || names[0] != "blackbox-000001.json" || names[1] != "blackbox-000002.json" {
		t.Errorf("List = %v", names)
	}

	empty := &Blackbox{Dir: filepath.Join(dir, "missing")}
	if names, err := empty.List(); err != nil || names != nil {
		t.Errorf("List on missing spool = %v, %v", names, err)
	}
}

// The acceptance criterion: a forced anomaly (1ns budget) with a
// fixed clock produces byte-identical bundles across independent
// runs, at any test parallelism.
func TestBlackboxDeterministicBytes(t *testing.T) {
	t.Parallel()
	run := func(dir string) [][]byte {
		bb := &Blackbox{Dir: dir}
		tr := New(Config{
			Clock:           fixedClock(3),
			Key:             11,
			SampleNum:       1,
			SampleDen:       2,
			RecorderCap:     32,
			Budget:          time.Nanosecond,
			AnomalyCooldown: -1,
			OnAnomaly:       func(a Anomaly) { bb.Dump(a.Reason) },
		})
		bb.Tracer = tr
		for i := uint64(0); i < 6; i++ {
			root := tr.Root(5, i)
			s := tr.StartSpan(root, "test.req")
			c := tr.StartChild(s.Context(), "test.step")
			c.SetAttr("i", int64(i))
			c.End()
			s.SetAttr("i", int64(i))
			s.End()
		}
		names, err := bb.List()
		if err != nil || len(names) == 0 {
			t.Fatalf("spool after run: %v, %v", names, err)
		}
		out := make([][]byte, len(names))
		for i, n := range names {
			data, err := os.ReadFile(filepath.Join(dir, n))
			if err != nil {
				t.Fatalf("reading %s: %v", n, err)
			}
			out[i] = data
		}
		return out
	}
	a := run(t.TempDir())
	b := run(t.TempDir())
	if len(a) != len(b) {
		t.Fatalf("runs dumped %d vs %d bundles", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("bundle %d differs between runs:\n%s\n----\n%s", i, a[i], b[i])
		}
	}
}

// Churn under the race detector: concurrent span traffic, flight
// recorder scrapes and blackbox dumps.
func TestChurnRace(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	bb := &Blackbox{Dir: dir, Metrics: reg}
	tr := New(Config{
		SampleNum: 1, SampleDen: 2, RecorderCap: 64, Metrics: reg,
		Budget: 10 * time.Millisecond, AnomalyCooldown: time.Millisecond,
		OnAnomaly: func(a Anomaly) { bb.Dump(a.Reason) },
	})
	bb.Tracer = tr

	const writers, perWriter = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				root := tr.Root(uint64(w), uint64(i))
				s := tr.StartSpan(root, "churn.op")
				c := tr.StartChild(s.Context(), "churn.step")
				c.SetAttr("w", int64(w))
				c.End()
				s.End()
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range tr.Spans(0) {
					if rec.Name != "churn.op" && rec.Name != "churn.step" {
						t.Errorf("scraped unknown span %q", rec.Name)
						return
					}
				}
				tr.Names()
				bb.Dump("scrape")
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got, want := tr.SpanCount(), uint64(0); got < uint64(writers*perWriter) {
		t.Errorf("SpanCount = %d, want >= %d (+want0 %d)", got, writers*perWriter, want)
	}
}

// The recorder's zero-allocation contract, span decision included:
// an unsampled trace pays 0 allocs for the root span and 0 for each
// declined child; a sampled trace still records alloc-free once its
// names are interned.
func TestZeroAllocSpans(t *testing.T) {
	reg := obs.NewRegistry()
	for _, tc := range []struct {
		name     string
		num, den uint64
	}{
		{"unsampled", 0, 1},
		{"sampled", 1, 1},
	} {
		tr := New(Config{SampleNum: tc.num, SampleDen: tc.den, RecorderCap: 64,
			Metrics: reg, Budget: time.Hour})
		// Warm the intern table: first use allocates by design.
		warm := tr.StartSpan(tr.Root(0, 0), "alloc.op")
		finish(Span(tr.StartChild(warm.Context(), "alloc.step")))
		warm.SetAttr("n", 1)
		warm.End()
		var i uint64
		allocs := testing.AllocsPerRun(200, func() {
			i++
			root := tr.Root(1, i)
			s := tr.StartSpan(root, "alloc.op")
			c := tr.StartChild(s.Context(), "alloc.step")
			c.End()
			s.SetAttr("n", int64(i))
			s.End()
		})
		if allocs != 0 {
			t.Errorf("%s trace: %v allocs per span chain, want 0", tc.name, allocs)
		}
	}
}
