package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/xgft"
)

// startServer runs a Server over a loopback listener and returns its
// address. Cleanup closes the server and asserts every goroutine it
// spawned has drained.
func startServer(t *testing.T, r Resolver, timeout time.Duration) string {
	t.Helper()
	return startServerWith(t, &Server{Resolver: r, Timeout: timeout})
}

// startServerWith is startServer for a caller-built Server (metrics,
// tracer).
func startServerWith(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		select {
		case err := <-done:
			if !errors.Is(err, ErrServerClosed) {
				t.Errorf("Serve returned %v, want ErrServerClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Close")
		}
		// Close waits on the per-connection goroutines, so after it
		// returns the count must be back to (at most) the baseline;
		// poll briefly to let exiting goroutines be reaped.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			t.Errorf("goroutine leak: %d before, %d after close\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
	})
	return l.Addr().String()
}

func testFabric(t testing.TB, telemetry bool) *fabric.Fabric {
	t.Helper()
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	f, err := fabric.New(fabric.Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: telemetry})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestServerResolvesBatches is the basic round trip: batches through
// a real fabric come back packed, tagged with the serving generation,
// and decode to the in-process routes.
func TestServerResolvesBatches(t *testing.T) {
	f := testFabric(t, true)
	addr := startServer(t, f, 0)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n := f.Topology().Leaves()
	st := hashutil.NewStream(0x51, 1)
	pairs := make([][2]int, 777)
	for i := range pairs {
		pairs[i] = [2]int{st.Intn(n), st.Intn(n)}
	}
	pairs[0] = [2]int{0, 0}     // self
	pairs[1] = [2]int{n + 3, 1} // out of range

	gen, got, err := c.ResolveBatchPacked(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 0 {
		t.Fatalf("generation %d, want 0", gen)
	}
	wantPacked := make([]uint64, len(pairs))
	f.Generation().ResolveBatchPacked(pairs, wantPacked)
	counted := uint64(0)
	for i, p := range pairs {
		if got[i] != wantPacked[i] {
			t.Fatalf("pair %v: packed %#x over the wire, %#x in process", p, got[i], wantPacked[i])
		}
		// Decoded client-side, a word is the route the store resolves.
		want, ok := f.Generation().Resolve(p[0], p[1])
		if ok != (got[i] != Unreachable) {
			t.Fatalf("pair %v: word %#x over the wire, resolves %v in process", p, got[i], ok)
		}
		if !ok {
			continue
		}
		if up := fabric.AppendPackedUp(got[i], nil); fmt.Sprint(up) != fmt.Sprint(want.Up) {
			t.Fatalf("pair %v: ascent %v over the wire, %v in process", p, up, want.Up)
		}
		if p[0] != p[1] {
			counted++
		}
	}

	// The binary path feeds telemetry like the in-process one: exactly
	// the resolved non-self pairs of the one batch served (lookups on a
	// pinned Generation count nothing).
	if total := f.Telemetry().Total(); total != counted {
		t.Errorf("telemetry counted %d resolves, want %d", total, counted)
	}
}

// batchOnly hides everything but the batch signature, the way a stub
// resolver in front of a fabric looks to the server.
type batchOnly struct{ f *fabric.Fabric }

func (b batchOnly) ResolveBatchPacked(pairs [][2]int, out []uint64) (int, uint64) {
	return b.f.ResolveBatchPacked(pairs, out)
}

// TestServerServesPlainResolver: a Resolver without the fused method
// is served through the codec, byte for byte what the fabric itself
// answers, pipelined or not.
func TestServerServesPlainResolver(t *testing.T) {
	f := testFabric(t, false)
	frames := burstFrames(t, f.Topology().Leaves(), 8, false)
	burst := bytes.Join(frames, nil)
	var answers [2][]byte
	for i, r := range []Resolver{f, batchOnly{f}} {
		conn := dialRaw(t, startServer(t, r, 0))
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		answers[i] = readFrames(t, conn, len(frames))
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Fatal("a batch-only resolver in front of the fabric is answered differently than the fabric")
	}
}

// TestServerSurvivesManyConnections exercises connect/resolve/close
// churn; the startServer cleanup asserts no goroutine outlives it.
func TestServerSurvivesManyConnections(t *testing.T) {
	f := testFabric(t, false)
	addr := startServer(t, f, 0)
	for i := 0; i < 20; i++ {
		c, err := Dial(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.ResolveBatchPacked([][2]int{{0, i % 8}}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

// dialRaw opens a raw connection for malformed-input tests.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// expectErrorThenClose asserts the server answers with one error
// frame carrying the code and then closes the connection.
func expectErrorThenClose(t *testing.T, conn net.Conn, wantCode byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := NewFrameReader(conn)
	typ, payload, err := fr.Read()
	if err != nil {
		t.Fatalf("reading error frame: %v", err)
	}
	if typ != TypeError {
		t.Fatalf("frame type %d, want error", typ)
	}
	re, err := DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if re.Code != wantCode {
		t.Fatalf("error code %d (%s), want %d", re.Code, re.Msg, wantCode)
	}
	if _, _, err := fr.Read(); err == nil {
		t.Fatal("connection still open after protocol error")
	}
}

func TestServerRejectsOversizedFrame(t *testing.T) {
	addr := startServer(t, testFabric(t, false), 0)
	conn := dialRaw(t, addr)
	hdr := AppendHeader(nil, TypeResolveRequest, 0)
	binary.BigEndian.PutUint32(hdr[4:8], MaxPayload+1)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	expectErrorThenClose(t, conn, ErrCodeOverflow)
}

func TestServerRejectsWrongVersion(t *testing.T) {
	addr := startServer(t, testFabric(t, false), 0)
	conn := dialRaw(t, addr)
	frame, err := AppendResolveRequest(nil, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	frame[2] = Version + 1
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	expectErrorThenClose(t, conn, ErrCodeMalformed)
}

func TestServerRejectsBadMagicAndType(t *testing.T) {
	addr := startServer(t, testFabric(t, false), 0)
	conn := dialRaw(t, addr)
	if _, err := conn.Write([]byte("GET /resolve?src=0&dst=1")); err != nil {
		t.Fatal(err)
	}
	expectErrorThenClose(t, conn, ErrCodeMalformed)

	// A well-formed frame of the wrong type (a response sent to the
	// server) is refused with a distinct code.
	conn2 := dialRaw(t, addr)
	frame, err := AppendResolveResponse(nil, 0, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write(frame); err != nil {
		t.Fatal(err)
	}
	expectErrorThenClose(t, conn2, ErrCodeBadType)
}

func TestServerRejectsCountMismatch(t *testing.T) {
	addr := startServer(t, testFabric(t, false), 0)
	conn := dialRaw(t, addr)
	// Declare 4 pairs, carry 1.
	payload := binary.BigEndian.AppendUint32(nil, 4)
	payload = append(payload, make([]byte, 8)...)
	frame := AppendHeader(nil, TypeResolveRequest, len(payload))
	frame = append(frame, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	expectErrorThenClose(t, conn, ErrCodeMalformed)
}

// expectDeadlineCut asserts the server gives up on conn within its
// read deadline. Its error frame may or may not beat the close to the
// peer; when it does, it must name the deadline (ErrCodeUnavailable),
// not call the silence malformed. Either way the cut is counted.
func expectDeadlineCut(t *testing.T, conn net.Conn, reg *obs.Registry) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := NewFrameReader(conn)
	typ, payload, err := fr.Read()
	if err == nil {
		if typ != TypeError {
			t.Fatalf("frame type %d from a server that was sent no request", typ)
		}
		re, derr := DecodeError(payload)
		if derr != nil {
			t.Fatal(derr)
		}
		if re.Code != ErrCodeUnavailable || !strings.Contains(re.Msg, "deadline") {
			t.Errorf("timeout answered with code %d %q, want %d naming the deadline", re.Code, re.Msg, ErrCodeUnavailable)
		}
		_, _, err = fr.Read()
	}
	if err == nil || deadlineCut(err) {
		t.Fatalf("connection survived a stall past the read deadline (read: %v)", err)
	}
	if cuts := reg.Snapshot()[metricDeadlineCuts]; cuts != 1 {
		t.Errorf("%s = %v, want 1", metricDeadlineCuts, cuts)
	}
}

// TestServerCutsSlowLoris proves the read deadline: a peer that sends
// half a header and stalls is disconnected instead of pinning its
// goroutine (the cleanup's leak check is the teeth).
func TestServerCutsSlowLoris(t *testing.T) {
	reg := obs.NewRegistry()
	addr := startServerWith(t, &Server{Resolver: testFabric(t, false), Timeout: 200 * time.Millisecond, Metrics: reg})
	conn := dialRaw(t, addr)
	if _, err := conn.Write([]byte{0xFA, 0x57, Version}); err != nil { // 3 of 8 header bytes
		t.Fatal(err)
	}
	expectDeadlineCut(t, conn, reg)
}

// TestServerCutsStalledBody is the payload-phase slow-loris: a valid
// header whose payload never arrives.
func TestServerCutsStalledBody(t *testing.T) {
	reg := obs.NewRegistry()
	addr := startServerWith(t, &Server{Resolver: testFabric(t, false), Timeout: 200 * time.Millisecond, Metrics: reg})
	conn := dialRaw(t, addr)
	if _, err := conn.Write(AppendHeader(nil, TypeResolveRequest, 4+8*16)); err != nil {
		t.Fatal(err)
	}
	expectDeadlineCut(t, conn, reg)
}

// TestServerCutsStalledReader is the write-side twin: a peer that
// sends a request and never reads the answer is cut by the flush's
// write deadline. net.Pipe has no buffer, so the very first flush
// blocks.
func TestServerCutsStalledReader(t *testing.T) {
	reg := obs.NewRegistry()
	srv := &Server{Resolver: testFabric(t, false), Timeout: 200 * time.Millisecond, Metrics: reg}
	client, server := net.Pipe()
	defer client.Close()
	c := attach(t, srv, server)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		c.serve()
	}()
	req, err := AppendResolveRequest(nil, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(req); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server still holds a connection whose peer never drains")
	}
	if cuts := reg.Snapshot()[metricDeadlineCuts]; cuts != 1 {
		t.Errorf("%s = %v, want 1", metricDeadlineCuts, cuts)
	}
}

// burstFrames builds a keyed burst of request frames, 16 pairs each
// with self and out-of-range pairs mixed in, v1 or traced.
func burstFrames(t testing.TB, n, frames int, traced bool) [][]byte {
	t.Helper()
	st := hashutil.NewStream(0xb0057, uint64(frames))
	out := make([][]byte, frames)
	for f := range out {
		pairs := make([][2]int, 16)
		for i := range pairs {
			pairs[i] = [2]int{st.Intn(n + 2), st.Intn(n)}
		}
		pairs[f%16] = [2]int{f % n, f % n}
		var err error
		if traced {
			out[f], err = AppendResolveRequestTraced(nil, TraceContext{TraceHi: 1, TraceLo: uint64(f), SpanID: 7}, pairs)
		} else {
			out[f], err = AppendResolveRequest(nil, pairs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// readFrames reads n whole frames off conn and returns their bytes,
// headers included, with each traced response's timing trailer zeroed
// (the one part of a response that is a clock reading).
func readFrames(t *testing.T, conn net.Conn, n int) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := NewFrameReader(conn)
	var got []byte
	for i := 0; i < n; i++ {
		typ, payload, err := fr.Read()
		if err != nil {
			t.Fatalf("reading frame %d of %d: %v", i, n, err)
		}
		if typ == TypeResolveResponseTraced {
			clear(payload[len(payload)-TimingSize:])
		}
		got = AppendHeader(got, typ, len(payload))
		got = append(got, payload...)
	}
	return got
}

// awaitFlushed snapshots reg once its flush histogram accounts for the
// given number of response frames. The server records a flush after
// the write returns, so a client that has just read the last response
// can get here first; the wait is bounded, and a miss returns what was
// recorded.
func awaitFlushed(reg *obs.Registry, frames float64) obs.Snapshot {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		snap := reg.Snapshot()
		if snap[metricFlushFrames+"_sum"] >= frames || time.Now().After(deadline) {
			return snap
		}
	}
}

// TestPipelinedBurstMatchesPingPong is the coalescing contract's first
// half: a burst written with one Write is answered with exactly the
// bytes the same frames get one at a time, in request order.
func TestPipelinedBurstMatchesPingPong(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			f := testFabric(t, true)
			reg := obs.NewRegistry()
			addr := startServerWith(t, &Server{Resolver: f, Metrics: reg})
			frames := burstFrames(t, f.Topology().Leaves(), 64, traced)

			pp := dialRaw(t, addr)
			var want []byte
			for _, fr := range frames {
				if _, err := pp.Write(fr); err != nil {
					t.Fatal(err)
				}
				want = append(want, readFrames(t, pp, 1)...)
			}
			if flushes := awaitFlushed(reg, 64)[metricFlushFrames+"_count"]; flushes != 64 {
				t.Errorf("ping-pong: %v flushes for 64 frames, want one each", flushes)
			}

			burst := dialRaw(t, addr)
			if _, err := burst.Write(bytes.Join(frames, nil)); err != nil {
				t.Fatal(err)
			}
			if got := readFrames(t, burst, 64); !bytes.Equal(got, want) {
				t.Fatal("pipelined burst answered with different bytes than the same frames ping-pong")
			}
			snap := awaitFlushed(reg, 128)
			if frames, flushes := snap[metricFlushFrames+"_sum"], snap[metricFlushFrames+"_count"]; frames != 128 || flushes >= 128 {
				t.Errorf("%v frames left in %v flushes: the burst was not coalesced", frames, flushes)
			}
		})
	}
}

// TestServerFlushesBeforeWaiting is the second half: the server never
// sits in a read holding responses. A client that sends frame A plus
// half of frame B and then waits gets A's response before it sends the
// rest.
func TestServerFlushesBeforeWaiting(t *testing.T) {
	f := testFabric(t, false)
	addr := startServer(t, f, 0)
	frames := burstFrames(t, f.Topology().Leaves(), 2, false)
	a, b := frames[0], frames[1]
	conn := dialRaw(t, addr)
	if _, err := conn.Write(append(append([]byte{}, a...), b[:len(b)/2]...)); err != nil {
		t.Fatal(err)
	}
	first := readFrames(t, conn, 1)
	if _, err := conn.Write(b[len(b)/2:]); err != nil {
		t.Fatal(err)
	}
	second := readFrames(t, conn, 1)

	pp := dialRaw(t, addr)
	for i, got := range [][]byte{first, second} {
		if _, err := pp.Write(frames[i]); err != nil {
			t.Fatal(err)
		}
		if want := readFrames(t, pp, 1); !bytes.Equal(got, want) {
			t.Errorf("frame %d answered differently split than whole", i)
		}
	}
}

// TestMidBurstRejectionDeliversOwedResponsesFirst: good, good, bad in
// one write is answered with two responses, one error frame, and a
// close — whether the bad frame fails at its header or in its payload.
func TestMidBurstRejectionDeliversOwedResponsesFirst(t *testing.T) {
	f := testFabric(t, false)
	addr := startServer(t, f, 0)
	good := burstFrames(t, f.Topology().Leaves(), 2, false)
	mismatch := AppendHeader(nil, TypeResolveRequest, 12)
	mismatch = binary.BigEndian.AppendUint32(mismatch, 4) // declares 4 pairs, carries 1
	mismatch = append(mismatch, make([]byte, 8)...)
	for name, bad := range map[string][]byte{
		"count mismatch": mismatch,
		"bad magic":      []byte("GET / HTTP/1.1\r\n\r\n"),
	} {
		t.Run(name, func(t *testing.T) {
			pp := dialRaw(t, addr)
			var want []byte
			for _, fr := range good {
				if _, err := pp.Write(fr); err != nil {
					t.Fatal(err)
				}
				want = append(want, readFrames(t, pp, 1)...)
			}
			conn := dialRaw(t, addr)
			if _, err := conn.Write(bytes.Join([][]byte{good[0], good[1], bad}, nil)); err != nil {
				t.Fatal(err)
			}
			if got := readFrames(t, conn, 2); !bytes.Equal(got, want) {
				t.Fatal("responses owed before the rejection differ from the ping-pong ones")
			}
			expectErrorThenClose(t, conn, ErrCodeMalformed)
		})
	}
}

// TestBurstBeyondFlushThresholdIsDeliveredWhole: a burst whose
// responses outgrow flushThreshold is flushed in bounded pieces while
// the client is still writing, and every response arrives.
func TestBurstBeyondFlushThresholdIsDeliveredWhole(t *testing.T) {
	f := testFabric(t, false)
	reg := obs.NewRegistry()
	addr := startServerWith(t, &Server{Resolver: f, Metrics: reg})
	n := f.Topology().Leaves()
	pairs := make([][2]int, 512)
	for i := range pairs {
		pairs[i] = [2]int{i % n, (i / n) % n}
	}
	frame, err := AppendResolveRequest(nil, pairs)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 24
	respLen := HeaderSize + 12 + 8*len(pairs)
	if frames*respLen < flushThreshold+respLen {
		t.Fatalf("burst answers with %d bytes, not past the %d-byte threshold", frames*respLen, flushThreshold)
	}
	conn := dialRaw(t, addr)
	if _, err := conn.Write(bytes.Repeat(frame, frames)); err != nil {
		t.Fatal(err)
	}
	got := readFrames(t, conn, frames)
	pp := dialRaw(t, addr)
	if _, err := pp.Write(frame); err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat(readFrames(t, pp, 1), frames); !bytes.Equal(got, want) {
		t.Fatal("burst past the flush threshold lost or reordered response bytes")
	}
	// No flush ever carried more than the threshold plus one response.
	bound := float64(flushThreshold/respLen + 1)
	if most := awaitFlushed(reg, frames+1)[metricFlushFrames+"_max"]; most > bound {
		t.Errorf("one flush carried %v responses of %d bytes, bound is %v", most, respLen, bound)
	}
}

// scriptConn is a connection whose peer is a script: each Read hands
// over the next chunk (whole, the server's buffer is larger), then
// EOF; writes are counted and kept. It lets a test run the real serve
// loop on its own goroutine, where allocations and writes can be
// counted exactly.
type scriptConn struct {
	net.Conn // nil: the serve loop must need nothing beyond the methods below
	chunks   [][]byte
	next     int
	writes   int
	wrote    []byte
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.next == len(c.chunks) {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[c.next])
	if n < len(c.chunks[c.next]) {
		panic("scriptConn: chunk larger than the server's read buffer")
	}
	c.next++
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes++
	c.wrote = append(c.wrote[:0], p...)
	return len(p), nil
}

func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }

// attach hands conn to srv the way Serve would an accepted connection,
// without a listener, and returns its serve state.
func attach(t testing.TB, srv *Server, conn net.Conn) *serverConn {
	t.Helper()
	if srv.Metrics != nil && srv.m == nil {
		srv.m = newServerMetrics(srv.Metrics)
	}
	st, ok := srv.trackConn(conn)
	if !ok {
		t.Fatal("fresh server refused a connection")
	}
	return srv.newConn(conn, st)
}

// serveScript runs srv's serve loop over the chunks as one connection's
// input, repeatedly, and returns the heap allocations and writes of one
// pass in steady state.
func serveScript(t *testing.T, srv *Server, chunks [][]byte) (allocs float64, writes int) {
	t.Helper()
	conn := &scriptConn{chunks: chunks}
	c := attach(t, srv, conn)
	allocs = testing.AllocsPerRun(50, func() {
		conn.next, conn.writes = 0, 0
		c.serve()
	})
	return allocs, conn.writes
}

// coalescedWrites is how many writes a pipelined burst of frames equal
// responses of respLen bytes leaves in: one each time flushThreshold
// bytes are pending, and one for what is left when the input runs dry.
func coalescedWrites(frames, respLen int) int {
	writes, pending := 0, 0
	for f := 0; f < frames; f++ {
		if pending += respLen; pending >= flushThreshold || f == frames-1 {
			writes, pending = writes+1, 0
		}
	}
	return writes
}

// steadyStateAllocs pins the zero-allocation claim on the serve loop
// itself, observability attached: a 64-frame input served ping-pong
// (one frame per read, one write per frame) and pipelined (one read,
// one write per flushThreshold bytes) allocates nothing per frame.
func steadyStateAllocs(t *testing.T, srv *Server, traced bool) {
	t.Helper()
	frames := burstFrames(t, 64, 64, traced)
	respLen := HeaderSize + 12 + 8*16
	if traced {
		respLen += TimingSize
	}
	for _, tc := range []struct {
		name   string
		chunks [][]byte
		writes int
	}{
		{"ping-pong", frames, 64},
		{"pipelined", [][]byte{bytes.Join(frames, nil)}, coalescedWrites(64, respLen)},
	} {
		allocs, writes := serveScript(t, srv, tc.chunks)
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per 64 frames served, want 0", tc.name, allocs)
		}
		if writes != tc.writes {
			t.Errorf("%s: %d writes for 64 frames, want %d", tc.name, writes, tc.writes)
		}
	}
}

// TestServerSteadyStateAllocs: plain frames through a server with
// telemetry and metrics on, as fabricd runs it.
func TestServerSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, &Server{Resolver: testFabric(t, true), Metrics: obs.NewRegistry()}, false)
}

func TestServeRequiresResolver(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{}
	if err := srv.Serve(l); err == nil || !strings.Contains(err.Error(), "Resolver") {
		t.Fatalf("Serve without resolver: %v", err)
	}
}

func TestServeAfterCloseRefuses(t *testing.T) {
	srv := &Server{Resolver: testFabric(t, false)}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after Close: %v, want ErrServerClosed", err)
	}
}

// TestClientReportsRemoteError proves the client surfaces a server
// error frame as *RemoteError.
func TestClientReportsRemoteError(t *testing.T) {
	addr := startServer(t, testFabric(t, false), 0)
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, 2*time.Second)
	defer c.Close()
	// Poison the connection with a raw malformed frame, then observe
	// the error response through the client.
	if _, err := conn.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.ResolveBatchPacked([][2]int{{0, 1}})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error %v, want *RemoteError", err)
	}
}
