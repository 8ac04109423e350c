package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/xgft"
)

func TestTracedRequestRoundTrip(t *testing.T) {
	tc := TraceContext{TraceHi: 0x1122334455667788, TraceLo: 0x99AABBCCDDEEFF00, SpanID: 0xCAFE, Flags: 1}
	pairs := [][2]int{{0, 1}, {MaxEndpoint, 7}, {3, 3}}
	frame, err := AppendResolveRequestTraced(nil, tc, pairs)
	if err != nil {
		t.Fatal(err)
	}
	typ, n, err := ParseHeader(frame)
	if err != nil || typ != TypeResolveRequestTraced || n != len(frame)-HeaderSize {
		t.Fatalf("header: typ %d len %d err %v", typ, n, err)
	}
	if v := frame[2]; v != VersionTraced {
		t.Fatalf("traced request carries version %d, want %d", v, VersionTraced)
	}
	gotTC, gotPairs, err := DecodeResolveRequestTraced(frame[HeaderSize:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotTC != tc {
		t.Fatalf("trace context %+v, want %+v", gotTC, tc)
	}
	if len(gotPairs) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(gotPairs), len(pairs))
	}
	for i := range pairs {
		if gotPairs[i] != pairs[i] {
			t.Fatalf("pair %d = %v, want %v", i, gotPairs[i], pairs[i])
		}
	}
	// The batch after the context prefix is byte-identical to a v1
	// request payload for the same pairs.
	v1, err := AppendResolveRequest(nil, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame[HeaderSize+TraceContextSize:], v1[HeaderSize:]) {
		t.Fatal("traced request batch bytes differ from the v1 encoding")
	}
}

func TestTracedResponseRoundTripAndPatch(t *testing.T) {
	packed := []uint64{0, ^uint64(0), 0xDEAD}
	frame, err := AppendResolveResponseTraced(nil, 42, packed, Timing{})
	if err != nil {
		t.Fatal(err)
	}
	if v := frame[2]; v != VersionTraced {
		t.Fatalf("traced response carries version %d, want %d", v, VersionTraced)
	}
	// The resolve payload proper sits at the same offsets as a v1
	// response, byte for byte; only the trailer is new.
	v1, err := AppendResolveResponse(nil, 42, packed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame[HeaderSize:len(frame)-TimingSize], v1[HeaderSize:]) {
		t.Fatal("traced response resolve bytes differ from the v1 encoding")
	}

	tm := Timing{TotalNS: 1000, DecodeNS: 100, ResolveNS: 700, EncodeNS: 150}
	if err := PatchTiming(frame, tm); err != nil {
		t.Fatal(err)
	}
	gen, gotPacked, gotTM, err := DecodeResolveResponseTraced(frame[HeaderSize:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 42 || gotTM != tm {
		t.Fatalf("gen %d tm %+v, want 42 %+v", gen, gotTM, tm)
	}
	for i := range packed {
		if gotPacked[i] != packed[i] {
			t.Fatalf("packed[%d] = %#x, want %#x", i, gotPacked[i], packed[i])
		}
	}

	if err := PatchTiming(frame[:HeaderSize+12], tm); err == nil {
		t.Error("PatchTiming accepted a frame with no room for a trailer")
	}
}

func TestParseHeaderVersionByType(t *testing.T) {
	mk := func(version, typ byte) []byte {
		h := make([]byte, HeaderSize)
		binary.BigEndian.PutUint16(h[0:2], Magic)
		h[2], h[3] = version, typ
		return h
	}
	ok := []struct{ v, typ byte }{
		{Version, TypeResolveRequest},
		{Version, TypeResolveResponse},
		{Version, TypeError},
		{VersionTraced, TypeResolveRequestTraced},
		{VersionTraced, TypeResolveResponseTraced},
	}
	for _, c := range ok {
		if _, _, err := ParseHeader(mk(c.v, c.typ)); err != nil {
			t.Errorf("version %d type %d rejected: %v", c.v, c.typ, err)
		}
	}
	bad := []struct{ v, typ byte }{
		{Version, TypeResolveRequestTraced},  // traced type under v1
		{Version, TypeResolveResponseTraced}, // traced type under v1
		{VersionTraced, TypeResolveRequest},  // v1 type under v2
		{VersionTraced, TypeError},           // v1 type under v2
		{3, TypeResolveRequest},              // unknown version
		{VersionTraced, 6},                   // unknown type
	}
	for _, c := range bad {
		if _, _, err := ParseHeader(mk(c.v, c.typ)); err == nil {
			t.Errorf("version %d type %d accepted", c.v, c.typ)
		}
	}
}

func TestTracedDecodeRejectsMalformed(t *testing.T) {
	if _, err := ParseTraceContext(make([]byte, TraceContextSize)); err == nil {
		t.Error("context prefix with no batch accepted")
	}
	if _, _, err := DecodeResolveRequestTraced(make([]byte, 10), nil); err == nil {
		t.Error("short traced request accepted")
	}
	// Valid prefix, corrupt batch count.
	frame, _ := AppendResolveRequestTraced(nil, TraceContext{}, [][2]int{{1, 2}})
	payload := append([]byte{}, frame[HeaderSize:]...)
	binary.BigEndian.PutUint32(payload[TraceContextSize:], 9)
	if _, _, err := DecodeResolveRequestTraced(payload, nil); err == nil {
		t.Error("traced request with wrong count accepted")
	}
	if _, _, _, err := DecodeResolveResponseTraced(make([]byte, 12), nil); err == nil {
		t.Error("traced response with no trailer accepted")
	}
	// Trailer present but body count wrong.
	resp, _ := AppendResolveResponseTraced(nil, 1, []uint64{5}, Timing{})
	payload = append([]byte{}, resp[HeaderSize:]...)
	binary.BigEndian.PutUint32(payload[8:12], 7)
	if _, _, _, err := DecodeResolveResponseTraced(payload, nil); err == nil {
		t.Error("traced response with wrong count accepted")
	}
}

// startTracedServer is startServer with a tracer attached.
func startTracedServer(t *testing.T, r Resolver, tr *trace.Tracer) string {
	t.Helper()
	return startServerWith(t, &Server{Resolver: r, Timeout: 2 * time.Second, Tracer: tr})
}

// TestServerTracedEndToEnd drives traced frames through a live server
// and checks the three promises: payloads match the untraced path
// byte-for-byte, the timing trailer is filled and internally
// consistent, and the server's spans join the client's trace.
func TestServerTracedEndToEnd(t *testing.T) {
	f := testFabric(t, false)
	tr := trace.New(trace.Config{SampleNum: 1, SampleDen: 1, RecorderCap: 64})
	addr := startTracedServer(t, f, tr)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n := f.Topology().Leaves()
	st := hashutil.NewStream(0x7a, 2)
	pairs := make([][2]int, 300)
	for i := range pairs {
		pairs[i] = [2]int{st.Intn(n), st.Intn(n)}
	}
	client := trace.New(trace.Config{SampleNum: 1, SampleDen: 1, RecorderCap: 16})
	sc := client.Root(1, 1)
	tc := TraceContext{TraceHi: sc.Trace.Hi, TraceLo: sc.Trace.Lo, SpanID: sc.Span, Flags: sc.Flags}

	gen, packed, tm, err := c.ResolveBatchPackedTraced(tc, pairs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(pairs))
	wantGen := f.Generation().Seq()
	f.Generation().ResolveBatchPacked(pairs, want)
	if gen != wantGen {
		t.Errorf("generation %d, want %d", gen, wantGen)
	}
	for i := range want {
		if packed[i] != want[i] {
			t.Fatalf("pair %v: packed %#x traced, %#x in process", pairs[i], packed[i], want[i])
		}
	}
	if tm.TotalNS <= 0 {
		t.Errorf("timing trailer not filled: %+v", tm)
	}
	if sum := tm.DecodeNS + tm.ResolveNS + tm.EncodeNS; sum > tm.TotalNS {
		t.Errorf("stage sum %d exceeds total %d", sum, tm.TotalNS)
	}

	// The server's spans joined our trace: the flight recorder holds a
	// wire.request rooted at our span, with the stage children inside.
	byName := map[string]trace.SpanRecord{}
	for _, rec := range awaitRequestSpan(tr) {
		byName[rec.Name] = rec
	}
	req, ok := byName["wire.request"]
	if !ok {
		t.Fatalf("no wire.request span recorded; got %v", byName)
	}
	if req.TraceID != sc.Trace.String() {
		t.Errorf("server span trace %s, want client trace %s", req.TraceID, sc.Trace.String())
	}
	if !req.Sampled {
		t.Error("server span did not inherit the client's sampling verdict")
	}
	if req.Attrs["pairs"] != int64(len(pairs)) {
		t.Errorf("wire.request attrs = %v", req.Attrs)
	}
	for _, stage := range []string{"wire.decode", "wire.resolve", "wire.encode"} {
		child, ok := byName[stage]
		if !ok {
			t.Errorf("no %s span recorded", stage)
			continue
		}
		if child.Parent != req.SpanID {
			t.Errorf("%s parent = %s, want %s", stage, child.Parent, req.SpanID)
		}
	}

	// Plain v1 requests keep working on the same connection — the
	// traced protocol is additive.
	genV1, packedV1, err := c.ResolveBatchPacked(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if genV1 != gen {
		t.Errorf("v1 generation %d after traced %d", genV1, gen)
	}
	for i := range want {
		if packedV1[i] != want[i] {
			t.Fatalf("pair %v: v1 packed %#x, want %#x", pairs[i], packedV1[i], want[i])
		}
	}
}

// awaitRequestSpan returns the recorder's spans once a wire.request
// span is among them. The server ends that span after the response is
// on the wire, so a client that has just read its reply can look first;
// the wait is bounded, and a miss returns whatever was recorded.
func awaitRequestSpan(tr *trace.Tracer) []trace.SpanRecord {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		spans := tr.Spans(0)
		for _, rec := range spans {
			if rec.Name == "wire.request" {
				return spans
			}
		}
		if time.Now().After(deadline) {
			return spans
		}
	}
}

// TestServerUntracedSpansLocalRoot: a tracer-equipped server serving
// v1 clients still records request spans, under locally minted roots.
func TestServerUntracedSpansLocalRoot(t *testing.T) {
	f := testFabric(t, false)
	tr := trace.New(trace.Config{SampleNum: 1, SampleDen: 1, RecorderCap: 16})
	addr := startTracedServer(t, f, tr)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.ResolveBatchPacked([][2]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range awaitRequestSpan(tr) {
		if rec.Name == "wire.request" && rec.TraceID != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("no wire.request span for a v1 request; spans: %+v", tr.Spans(0))
	}
}

// TestServerTracedSteadyStateAllocs pins the traced serve path: after
// warmup, traced batches through a tracer-equipped server allocate
// nothing per request on either side of the wire.
func TestServerTracedSteadyStateAllocs(t *testing.T) {
	f := testFabric(t, false)
	// Sampling off, the production default: the frames leave no span at
	// all (TestUnsampledFramesLeaveNoTrace counts them).
	tr := trace.New(trace.Config{SampleNum: 0, SampleDen: 1, RecorderCap: 64})
	addr := startTracedServer(t, f, tr)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pairs := make([][2]int, 128)
	n := f.Topology().Leaves()
	st := hashutil.NewStream(0x99, 3)
	for i := range pairs {
		pairs[i] = [2]int{st.Intn(n), st.Intn(n)}
	}
	tc := TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 3}
	for i := 0; i < 4; i++ { // warmup: buffers grow, names intern
		if _, _, _, err := c.ResolveBatchPackedTraced(tc, pairs); err != nil {
			t.Fatal(err)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		if _, _, _, err := c.ResolveBatchPackedTraced(tc, pairs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms1)
	// The client side is strictly alloc-free; the server goroutine
	// shares the process, so budget a handful of stray allocations
	// (timer wheels, netpoll) rather than zero.
	if per := float64(ms1.Mallocs-ms0.Mallocs) / rounds; per > 8 {
		t.Errorf("traced steady state allocates %.1f objects per round trip", per)
	}

	// The serve loop alone, counted exactly: traced frames, ping-pong
	// and pipelined, with the tracer sampling (stage children recorded)
	// and metrics on.
	sampling := trace.New(trace.Config{SampleNum: 1, SampleDen: 1, RecorderCap: 64})
	steadyStateAllocs(t, &Server{Resolver: f, Metrics: obs.NewRegistry(), Tracer: sampling}, true)
}

// tracedStack is a fabric and a server sharing one tracer and one
// registry, as fabricd wires them.
func tracedStack(t testing.TB, tr *trace.Tracer, reg *obs.Registry) *Server {
	t.Helper()
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f, err := fabric.New(fabric.Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true, Metrics: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	return &Server{Resolver: f, Metrics: reg, Tracer: tr}
}

// serveOnce runs one connection's serve loop over frames, one frame
// per read, and returns its connection id.
func serveOnce(t *testing.T, srv *Server, frames [][]byte) uint64 {
	t.Helper()
	c := attach(t, srv, &scriptConn{chunks: frames})
	c.serve()
	return c.st.id
}

// TestUnsampledFramesLeaveNoTrace: at 0/1, plain and traced frames,
// ping-pong and pipelined, are served without an allocation and without
// a span recorded or counted.
func TestUnsampledFramesLeaveNoTrace(t *testing.T) {
	reg := obs.NewRegistry()
	tr := trace.New(trace.Config{SampleNum: 0, SampleDen: 1, RecorderCap: 64, Metrics: reg})
	srv := tracedStack(t, tr, reg)
	before, spans := reg.Snapshot(), tr.SpanCount()
	steadyStateAllocs(t, srv, false)
	steadyStateAllocs(t, srv, true)
	after := reg.Snapshot()
	frames := after[metricFrames] - before[metricFrames]
	if frames == 0 || after["fabric_resolve_batches_total"]-before["fabric_resolve_batches_total"] != frames {
		t.Fatalf("served %v frames in %v fabric batches", frames, after["fabric_resolve_batches_total"])
	}
	if n, c := tr.SpanCount()-spans, after["trace_spans_total"]-before["trace_spans_total"]; n != 0 || c != 0 {
		t.Errorf("%v unsampled frames: %d spans recorded, trace_spans_total moved by %v; want 0 and 0", frames, n, c)
	}
}

// requestTraces groups the recorder's spans by trace and checks each
// recorded frame's shape: wire.request at the top, its three stage
// children, and fabric.resolve_batch_packed under wire.resolve, with
// the attributes they carry. It returns the traces holding a request.
func requestTraces(t *testing.T, spans []trace.SpanRecord) map[string]bool {
	t.Helper()
	byTrace := map[string]map[string]trace.SpanRecord{}
	for _, r := range spans {
		if byTrace[r.TraceID] == nil {
			byTrace[r.TraceID] = map[string]trace.SpanRecord{}
		}
		byTrace[r.TraceID][r.Name] = r
	}
	out := map[string]bool{}
	for id, recs := range byTrace {
		req, ok := recs["wire.request"]
		if !ok {
			t.Errorf("trace %s holds %d spans but no wire.request", id, len(recs))
			continue
		}
		out[id] = true
		if len(recs) != 5 || req.Attrs["pairs"] != 16 || len(req.Attrs) != 2 {
			t.Errorf("trace %s: %d spans, request attrs %v", id, len(recs), req.Attrs)
		}
		for _, stage := range []string{"wire.decode", "wire.resolve", "wire.encode"} {
			if recs[stage].Parent != req.SpanID {
				t.Errorf("trace %s: %s parent %q, want the request %s", id, stage, recs[stage].Parent, req.SpanID)
			}
		}
		fb := recs["fabric.resolve_batch_packed"]
		if fb.Parent != recs["wire.resolve"].SpanID || fb.Attrs["pairs"] != 16 || len(fb.Attrs) != 3 {
			t.Errorf("trace %s: fabric span %+v not under wire.resolve %s", id, fb, recs["wire.resolve"].SpanID)
		}
	}
	return out
}

// TestSampledFramesRecordTheirWholeTrace: at 1/1 every frame records
// wire.request, its stages, and the fabric's span under them.
func TestSampledFramesRecordTheirWholeTrace(t *testing.T) {
	tr := trace.New(trace.Config{SampleNum: 1, SampleDen: 1, RecorderCap: 1024})
	srv := tracedStack(t, tr, obs.NewRegistry())
	const frames = 32
	serveOnce(t, srv, burstFrames(t, 64, frames, false))
	if got := len(requestTraces(t, tr.Spans(0))); got != frames {
		t.Errorf("%d frames recorded, want all %d", got, frames)
	}
}

// TestPartialRateRecordsExactlyTheSampledFrames: at 1/16 the frames
// recorded are exactly those whose Root verdict is sampled, each with
// its whole trace; no fabric span is recorded without its request.
func TestPartialRateRecordsExactlyTheSampledFrames(t *testing.T) {
	tr := trace.New(trace.Config{SampleNum: 1, SampleDen: 16, RecorderCap: 4096})
	srv := tracedStack(t, tr, obs.NewRegistry())
	const frames = 512
	conn := serveOnce(t, srv, burstFrames(t, 64, frames, false))
	want := map[string]bool{}
	for k := uint64(1); k <= frames; k++ {
		if root := tr.Root(conn, k); root.Sampled() {
			want[root.Trace.String()] = true
		}
	}
	if len(want) == 0 || len(want) == frames {
		t.Fatalf("1/16 sampled %d of %d frames: the test needs a partial verdict", len(want), frames)
	}
	got := requestTraces(t, tr.Spans(0))
	if len(got) != len(want) {
		t.Errorf("%d frames recorded, %d sampled", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Errorf("sampled frame %s not recorded", id)
		}
	}
}

// sleepResolver is a stub resolver slower than any nanosecond budget.
type sleepResolver struct{}

func (sleepResolver) ResolveBatchPacked(pairs [][2]int, out []uint64) (int, uint64) {
	time.Sleep(time.Millisecond)
	return len(pairs), 1
}

// TestUnsampledBudgetBreachStillFires: at 0/1 the tracer's budget
// still watches every frame; a breach fires the anomaly and leaves the
// breaching span in the recorder.
func TestUnsampledBudgetBreachStillFires(t *testing.T) {
	var fired []trace.Anomaly
	tr := trace.New(trace.Config{SampleNum: 0, SampleDen: 1, RecorderCap: 64, Budget: time.Nanosecond, AnomalyCooldown: -1,
		OnAnomaly: func(a trace.Anomaly) { fired = append(fired, a) }})
	serveOnce(t, &Server{Resolver: sleepResolver{}, Tracer: tr}, burstFrames(t, 64, 1, false))
	if len(fired) != 1 || fired[0].Reason != trace.ReasonBudget || fired[0].Span.Name != "wire.request" {
		t.Fatalf("anomalies = %+v, want one wire.request budget breach", fired)
	}
	recs := tr.Spans(0)
	if len(recs) != 1 || recs[0].Name != "wire.request" || recs[0].Sampled || recs[0].Dur < int64(time.Millisecond) {
		t.Errorf("recorder = %+v, want the breaching unsampled wire.request", recs)
	}
}
