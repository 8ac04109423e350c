package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Span names the server records, as constants for repolint's obskeys
// pass. wire.request covers one frame from decode until its response is
// queued (and flushed, when that frame ends a burst), recorded for
// sampled traces and budget breaches; decode/resolve/encode are its
// stage children, recorded only for sampled traces.
const (
	spanRequest = "wire.request"
	spanDecode  = "wire.decode"
	spanResolve = "wire.resolve"
	spanEncode  = "wire.encode"

	attrPairs = "pairs"
	attrGen   = "gen"
)

// SpanNames lists every span name this package records, for the
// documentation drift test.
func SpanNames() []string {
	return []string{spanRequest, spanDecode, spanResolve, spanEncode}
}

// DefaultTimeout is the deadline on every read that can block and on
// every flush when Server.Timeout is zero: a peer that stalls
// mid-frame (slow-loris), idles, or stops draining responses is cut
// loose instead of pinning a goroutine and its buffers forever.
const DefaultTimeout = 30 * time.Second

// flushThreshold bounds the response bytes a connection queues before
// writing them out whatever its input holds. A pipelined burst's
// responses coalesce into one write up to this size, so the bytes
// pending on a connection never exceed it by more than one response.
//
// It is small on purpose. With a large threshold a burst's responses
// all leave at the very end, so the peer's wake-up sits on the critical
// path behind the whole of the server's work — tens of microseconds
// when the kernel has the two ends on different CPUs, next to nothing
// when they share one — and a burst's round trip swings by half with a
// placement neither end chooses. At 8 KB a long burst's peer is woken,
// and starts draining, while the server is still answering the tail:
// run to run that measured four times steadier than 64 KB and a tenth
// faster in the median (CHANGES.md, PR 14), for one more write per ~55
// small responses.
const flushThreshold = 8 << 10

// FusedResolver is the one call the serve loop makes per request
// frame: resolve a batch straight from the frame's bytes into the
// response's. pairs is the request's batch as the wire carries it, 8
// bytes a pair (big-endian uint32 src, then dst); one big-endian packed
// word per pair is appended to dst. The batch is served from one
// generation, returned with the resolved count. parent is the trace
// the batch joins; zero means untraced. fabric.Fabric implements it.
type FusedResolver interface {
	ResolveWire(parent trace.SpanContext, pairs, dst []byte) (out []byte, resolved int, generation uint64)
}

// Resolver is what Server.Resolver accepts: the in-process batch
// resolve, which is all a stub in front of (or instead of) a fabric
// has to provide. A Resolver that is also a FusedResolver — as
// fabric.Fabric is — is served through that method alone, with no
// []pair or []word staged in between; any other is adapted to it
// through the exported codec, one staging buffer pair per connection.
type Resolver interface {
	ResolveBatchPacked(pairs [][2]int, out []uint64) (resolved int, generation uint64)
}

// stagedResolver adapts a plain Resolver to the serve loop's call by
// decoding into, and encoding out of, its own reusable slices.
type stagedResolver struct {
	r      Resolver
	pairs  [][2]int
	packed []uint64
}

func (a *stagedResolver) ResolveWire(_ trace.SpanContext, pairs, dst []byte) ([]byte, int, uint64) {
	a.pairs = a.pairs[:0]
	for ; len(pairs) >= 8; pairs = pairs[8:] {
		a.pairs = append(a.pairs, [2]int{int(binary.BigEndian.Uint32(pairs[0:4])), int(binary.BigEndian.Uint32(pairs[4:8]))})
	}
	a.packed = slices.Grow(a.packed[:0], len(a.pairs))[:len(a.pairs)]
	resolved, gen := a.r.ResolveBatchPacked(a.pairs, a.packed)
	for _, w := range a.packed {
		dst = binary.BigEndian.AppendUint64(dst, w)
	}
	return dst, resolved, gen
}

// Server serves the binary resolve protocol over a listener: one
// goroutine per connection, each owning a reusable read buffer and
// response buffer, so the steady-state request loop performs zero
// allocations per resolve. Requests may be pipelined: responses come
// back in request order, the responses to a burst coalesced into one
// write per flushThreshold bytes, and everything queued is written
// before the server waits for more input. Protocol violations get one
// best-effort error frame (behind the responses already owed) and the
// connection is closed; well-formed traffic is served until the peer
// disconnects, a deadline expires, or the server closes.
type Server struct {
	// Resolver answers the batches. Required.
	Resolver Resolver
	// Timeout is the deadline on each read that can block and on each
	// flush; 0 means DefaultTimeout. Tests use short values to exercise
	// the slow-loris path quickly.
	Timeout time.Duration
	// Metrics, when set, registers the wire_* instruments (frames,
	// bytes, deadline cuts, connection counts, request latency, flush
	// latency and size) on the registry. Per-connection stats are kept
	// either way.
	Metrics *obs.Registry
	// Tracer, when set, traces frames under trace.StartRequest. Traced
	// (type 4) requests join the client's trace and inherit its
	// sampling verdict; plain requests get a locally minted root keyed
	// by connection and frame coordinates. A sampled frame records a
	// wire.request span (and its stage children); an unsampled one
	// records nothing unless it breaches a latency budget. nil disables
	// spans; the timing trailer on traced responses is filled either way.
	Tracer *trace.Tracer

	mu        sync.Mutex
	listeners map[net.Listener]struct{} // guarded by mu
	conns     map[net.Conn]*connState   // guarded by mu
	closed    bool                      // guarded by mu
	wg        sync.WaitGroup
	m         *serverMetrics
	connSeq   atomic.Uint64
}

// serverMetrics are the registry instruments a Server records into.
// Counters shard by connection id, so busy peers do not contend.
type serverMetrics struct {
	frames       *obs.Counter
	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	deadlineCuts *obs.Counter
	conns        *obs.Counter
	connsActive  *obs.Gauge
	requestNS    *obs.Histogram
	flushNS      *obs.Histogram
	flushFrames  *obs.Histogram
}

// Metric names as constants so repolint's obskeys pass keeps the
// inventory greppable.
const (
	metricFrames       = "wire_frames_total"
	metricBytesRead    = "wire_bytes_read_total"
	metricBytesWritten = "wire_bytes_written_total"
	metricDeadlineCuts = "wire_deadline_cuts_total"
	metricConns        = "wire_conns_total"
	metricConnsActive  = "wire_conns_active"
	metricRequestNS    = "wire_request_ns"
	metricFlushNS      = "wire_flush_ns"
	metricFlushFrames  = "wire_flush_frames"
)

// FlushObsNames lists the metric names that show response coalescing at
// work, for the documentation drift test.
func FlushObsNames() []string { return []string{metricFlushNS, metricFlushFrames} }

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		frames:       reg.Counter(metricFrames, "resolve request frames served", 8),
		bytesRead:    reg.Counter(metricBytesRead, "bytes read from resolve peers", 8),
		bytesWritten: reg.Counter(metricBytesWritten, "bytes written to resolve peers", 8),
		deadlineCuts: reg.Counter(metricDeadlineCuts, "connections cut by a read/write deadline", 1),
		conns:        reg.Counter(metricConns, "connections accepted", 1),
		connsActive:  reg.Gauge(metricConnsActive, "connections currently open"),
		requestNS:    reg.Histogram(metricRequestNS, "server-side service time per frame: read to response queued, plus the flush that frame triggered"),
		flushNS:      reg.Histogram(metricFlushNS, "one write of the queued responses to the peer"),
		flushFrames:  reg.Histogram(metricFlushFrames, "response frames coalesced into one write"),
	}
}

// connState is one connection's live stat block, updated with atomics
// on the serve path and snapshotted by ConnStats.
type connState struct {
	id           uint64
	remote       string
	frames       atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	deadlineCuts atomic.Uint64
}

// ConnStats is a point-in-time snapshot of one open connection.
type ConnStats struct {
	RemoteAddr   string `json:"remote_addr"`
	Frames       uint64 `json:"frames"`
	BytesRead    uint64 `json:"bytes_read"`
	BytesWritten uint64 `json:"bytes_written"`
	DeadlineCuts uint64 `json:"deadline_cuts"`
}

// ConnStats snapshots every open connection's counters, ordered by
// accept order (oldest first).
func (s *Server) ConnStats() []ConnStats {
	s.mu.Lock()
	states := make([]*connState, 0, len(s.conns))
	for _, st := range s.conns {
		states = append(states, st)
	}
	s.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	out := make([]ConnStats, len(states))
	for i, st := range states {
		out[i] = ConnStats{
			RemoteAddr:   st.remote,
			Frames:       st.frames.Load(),
			BytesRead:    st.bytesRead.Load(),
			BytesWritten: st.bytesWritten.Load(),
			DeadlineCuts: st.deadlineCuts.Load(),
		}
	}
	return out
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("wire: server closed")

func (s *Server) timeout() time.Duration {
	if s.Timeout > 0 {
		return s.Timeout
	}
	return DefaultTimeout
}

// track registers a listener for Close; it reports false (and closes
// nothing) when the server is already closed.
func (s *Server) track(l net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.m == nil && s.Metrics != nil {
		s.m = newServerMetrics(s.Metrics)
	}
	if s.listeners == nil {
		s.listeners = make(map[net.Listener]struct{})
	}
	s.listeners[l] = struct{}{}
	return true
}

// trackConn registers a connection for Close and allocates its stat
// block; it reports false when the server is already closed.
func (s *Server) trackConn(c net.Conn) (*connState, bool) {
	st := &connState{id: s.connSeq.Add(1)}
	if addr := c.RemoteAddr(); addr != nil {
		st.remote = addr.String()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]*connState)
	}
	s.conns[c] = st
	if s.m != nil {
		s.m.conns.Inc()
		s.m.connsActive.Add(1)
	}
	return st, true
}

func (s *Server) untrack(l net.Listener, c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l != nil {
		delete(s.listeners, l)
	}
	if c != nil {
		if _, ok := s.conns[c]; ok && s.m != nil {
			s.m.connsActive.Add(-1)
		}
		delete(s.conns, c)
	}
}

// Serve accepts connections on l until the listener fails or the
// server is closed. It always closes l before returning.
func (s *Server) Serve(l net.Listener) error {
	if s.Resolver == nil {
		l.Close()
		return errors.New("wire: Server.Resolver is required")
	}
	if !s.track(l) {
		l.Close()
		return ErrServerClosed
	}
	defer func() {
		s.untrack(l, nil)
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		st, ok := s.trackConn(conn)
		if !ok {
			conn.Close()
			return ErrServerClosed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(nil, conn)
			defer conn.Close()
			s.newConn(conn, st).serve()
		}()
	}
}

// Close stops accepting, closes every active connection, and waits
// for the per-connection goroutines to drain — after Close returns no
// server goroutine remains.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// countingReader feeds the connection's bufio reader while crediting
// bytes to the per-connection stat block and the registry counter.
type countingReader struct {
	conn net.Conn
	st   *connState
	m    *serverMetrics
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if n > 0 {
		r.st.bytesRead.Add(uint64(n))
		if r.m != nil {
			r.m.bytesRead.AddAt(r.st.id, uint64(n))
		}
	}
	return n, err
}

// deadlineCut reports whether err is a deadline expiry (as opposed to
// a peer disconnect or protocol fault).
func deadlineCut(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// serverConn is one connection's serve state. Every buffer is
// allocated once per connection and reused, so the steady state —
// metrics included — allocates nothing per frame.
type serverConn struct {
	conn    net.Conn
	st      *connState
	m       *serverMetrics // nil when metrics are off
	tracer  *trace.Tracer  // nil when spans are off
	res     FusedResolver
	timeout time.Duration
	br      *bufio.Reader
	fr      *FrameReader
	out     []byte // responses queued since the last flush
	queued  int    // response frames in out
}

func (s *Server) newConn(conn net.Conn, st *connState) *serverConn {
	res, fused := s.Resolver.(FusedResolver)
	if !fused {
		res = &stagedResolver{r: s.Resolver}
	}
	br := bufio.NewReaderSize(&countingReader{conn: conn, st: st, m: s.m}, 64<<10)
	return &serverConn{
		conn: conn, st: st, m: s.m, tracer: s.Tracer, res: res, timeout: s.timeout(),
		br: br, fr: NewFrameReader(br), out: make([]byte, 0, 16<<10),
	}
}

// serve is the request loop. Its invariant: the server blocks in a
// read only with nothing queued. serveFrame leaves a response queued
// only when the next request frame is already wholly buffered, so that
// frame's read cannot block and needs no deadline.
func (c *serverConn) serve() {
	for {
		if c.queued == 0 {
			c.conn.SetReadDeadline(time.Now().Add(c.timeout))
		}
		typ, payload, err := c.fr.Read()
		if err != nil {
			c.rejectRead(err)
			return
		}
		if !c.serveFrame(typ, payload) {
			return
		}
	}
}

// rejectRead ends the connection after a failed frame read. A clean
// close between frames needs no error frame; anything else gets one, so
// the peer can tell a protocol rejection or a deadline from a network
// fault.
func (c *serverConn) rejectRead(err error) {
	switch {
	case err == io.EOF:
	case deadlineCut(err):
		c.cut()
		c.reject(ErrCodeUnavailable, fmt.Sprintf("no complete frame within the %v read deadline", c.timeout))
	case errors.Is(err, ErrTooLarge):
		c.reject(ErrCodeOverflow, err.Error())
	default:
		c.reject(ErrCodeMalformed, err.Error())
	}
}

// cut counts a connection lost to a deadline.
func (c *serverConn) cut() {
	c.st.deadlineCuts.Add(1)
	if c.m != nil {
		c.m.deadlineCuts.Inc()
	}
}

// reject queues the one error frame behind whatever responses are
// already owed and writes them out together, in order. Best-effort: the
// peer may already be gone, and the connection closes either way.
func (c *serverConn) reject(code byte, msg string) {
	c.out = AppendError(c.out, code, msg)
	c.flush()
}

// flush writes everything queued with one Write under one deadline.
func (c *serverConn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	start := time.Now()
	c.conn.SetWriteDeadline(start.Add(c.timeout))
	n, err := c.conn.Write(c.out)
	c.st.bytesWritten.Add(uint64(n))
	if c.m != nil {
		c.m.bytesWritten.AddAt(c.st.id, uint64(n))
		c.m.flushNS.Observe(time.Since(start).Nanoseconds())
		c.m.flushFrames.Observe(int64(c.queued))
	}
	c.out, c.queued = c.out[:0], 0
	if err != nil && deadlineCut(err) {
		c.cut()
	}
	return err
}

// nextFrameBuffered reports whether the next request frame, header and
// declared payload, is already in the read buffer. The header is not
// validated here: a bad one fails the next Read without blocking.
func (c *serverConn) nextFrameBuffered() bool {
	have := c.br.Buffered()
	if have < HeaderSize {
		return false
	}
	h, _ := c.br.Peek(HeaderSize) // cannot fail: the bytes are buffered
	return uint64(have) >= HeaderSize+uint64(binary.BigEndian.Uint32(h[4:8]))
}

// responsePrefixLen is the room a response's frame header, generation
// and count take in front of its packed words.
const responsePrefixLen = HeaderSize + 12

// lap returns the nanoseconds since *mark, an obs.Nanotime reading, and
// moves the mark to now.
//
//repro:hotpath
func lap(mark *int64) int64 {
	now := obs.Nanotime()
	d := now - *mark
	*mark = now
	return d
}

// serveFrame answers one request frame: validate it, run the fused
// resolve pass straight from its payload into the queued output, frame
// the result, and flush unless the next request is already buffered. It
// reports whether the connection is still usable. The stage clocks are
// read only for traced frames, whose trailer carries them; an untraced
// frame reads the monotonic clock for wire_request_ns alone, and its
// span costs nothing unless its trace is sampled (trace.StartRequest).
func (c *serverConn) serveFrame(typ byte, payload []byte) bool {
	start := obs.Nanotime()
	traced := typ == TypeResolveRequestTraced
	if typ != TypeResolveRequest && !traced {
		c.reject(ErrCodeBadType, fmt.Sprintf("unexpected frame type %d (want resolve request)", typ))
		return false
	}
	// The request span joins the client's trace when one came over the
	// wire (keeping its sampling verdict), else it gets a local root
	// keyed by connection and frame coordinates. Either way the verdict
	// is decided here, once, for the whole frame.
	tracer := c.tracer
	var parent trace.SpanContext
	body := payload
	if traced {
		tc, err := ParseTraceContext(payload)
		if err != nil {
			c.reject(ErrCodeMalformed, err.Error())
			return false
		}
		parent = trace.SpanContext{
			Trace: trace.TraceID{Hi: tc.TraceHi, Lo: tc.TraceLo},
			Span:  tc.SpanID,
			Flags: tc.Flags,
		}
		body = payload[TraceContextSize:]
	} else {
		parent = tracer.Root(c.st.id, c.st.frames.Load()+1)
	}
	req := tracer.StartRequest(parent, spanRequest)
	ds := tracer.StartChild(req.Context(), spanDecode)
	count, err := resolveRequestCount(body)
	ds.End()
	if err != nil {
		req.End()
		c.reject(ErrCodeMalformed, err.Error())
		return false
	}
	var tm Timing
	mark := start
	if traced {
		tm.DecodeNS = lap(&mark)
	}

	// Resolve: the words land behind room for the header, which can
	// only be written once the pass has pinned a generation.
	rs := tracer.StartChild(req.Context(), spanResolve)
	rparent := rs.Context()
	if !rparent.Valid() {
		// Sampling dropped the stage child: nest the resolver's own span
		// under the request (for an unsampled frame, hand it the frame's
		// root, so it records nothing either).
		rparent = req.Context()
	}
	at := len(c.out)
	c.out = append(c.out, make([]byte, responsePrefixLen)...)
	var gen uint64
	c.out, _, gen = c.res.ResolveWire(rparent, body[4:], c.out)
	rs.SetAttr(attrPairs, int64(count))
	rs.End()
	if traced {
		tm.ResolveNS = lap(&mark)
	}

	// Encode: fill in the prefix, in place.
	es := tracer.StartChild(req.Context(), spanEncode)
	respType, n := byte(TypeResolveResponse), 12+8*count
	if traced {
		respType, n = TypeResolveResponseTraced, n+TimingSize
		c.out = append(c.out, make([]byte, TimingSize)...)
	}
	prefix := AppendHeader(c.out[at:at], respType, n)
	prefix = binary.BigEndian.AppendUint64(prefix, gen)
	binary.BigEndian.AppendUint32(prefix, uint32(count))
	es.End()
	if traced {
		tm.EncodeNS = lap(&mark)
		tm.TotalNS = mark - start
		_ = PatchTiming(c.out[at:], tm) // cannot fail: the frame ends with the trailer appended above
	}

	c.queued++
	var werr error
	if len(c.out) >= flushThreshold || !c.nextFrameBuffered() {
		werr = c.flush()
	}
	req.SetAttr(attrPairs, int64(count))
	req.SetAttr(attrGen, int64(gen))
	req.End()
	if werr != nil {
		return false
	}
	c.st.frames.Add(1)
	if c.m != nil {
		c.m.frames.AddAt(c.st.id, 1)
		c.m.requestNS.Observe(obs.Nanotime() - start)
	}
	return true
}
