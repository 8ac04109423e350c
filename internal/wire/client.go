package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
)

// Unreachable is fabric.PackedUnreachable re-exported, so clients
// that only inspect packed words need not import the fabric package.
const Unreachable = fabric.PackedUnreachable

// Client speaks the binary resolve protocol over one connection. It
// is not safe for concurrent use — it keeps one request outstanding
// per connection (the protocol itself allows pipelining); open one
// Client per goroutine. All buffers are owned by the client and
// reused, so a steady stream of equal-size batches performs zero
// allocations per call.
type Client struct {
	// RTT, when set, observes one sample per ResolveBatchPacked round
	// trip (request write through decoded response, in nanoseconds).
	// Share one histogram across clients to aggregate; set before use.
	RTT *obs.Histogram

	conn    net.Conn
	fr      *FrameReader
	timeout time.Duration
	wbuf    []byte
	packed  []uint64
}

// Dial connects to a binary resolve listener. timeout bounds the
// dial, every request write and every response read; 0 means
// DefaultTimeout.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewClient(conn, timeout), nil
}

// NewClient wraps an established connection (tests use net.Pipe-like
// setups). timeout 0 means DefaultTimeout.
func NewClient(conn net.Conn, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Client{
		conn:    conn,
		fr:      NewFrameReader(bufio.NewReaderSize(conn, 64<<10)),
		timeout: timeout,
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ResolveBatchPacked resolves the batch and returns the serving
// generation plus one packed word per pair, in request order —
// fabric.PackedUnreachable for unresolvable slots, otherwise the
// store's packed encoding (decode with fabric.PackedNCALevel /
// fabric.AppendPackedUp). The returned slice is reused by the next
// call.
func (c *Client) ResolveBatchPacked(pairs [][2]int) (generation uint64, packed []uint64, err error) {
	generation, packed, _, err = c.roundTrip(false, TraceContext{}, pairs)
	return generation, packed, err
}

// ResolveBatchPackedTraced is ResolveBatchPacked over the traced (v2)
// frames: the request carries tc so the server's spans join the
// caller's trace, and the response's timing trailer is returned — the
// server's own time attribution, which the caller subtracts from its
// measured RTT to isolate network and queueing. The server must speak
// version 2; older servers reject the frame with a version error.
func (c *Client) ResolveBatchPackedTraced(tc TraceContext, pairs [][2]int) (generation uint64, packed []uint64, tm Timing, err error) {
	return c.roundTrip(true, tc, pairs)
}

// roundTrip is one request/response exchange, plain (v1) or traced
// (v2, carrying tc out and the timing trailer back).
func (c *Client) roundTrip(traced bool, tc TraceContext, pairs [][2]int) (generation uint64, packed []uint64, tm Timing, err error) {
	var start time.Time
	if c.RTT != nil {
		start = time.Now()
	}
	want := byte(TypeResolveResponse)
	if traced {
		want = TypeResolveResponseTraced
		c.wbuf, err = AppendResolveRequestTraced(c.wbuf[:0], tc, pairs)
	} else {
		c.wbuf, err = AppendResolveRequest(c.wbuf[:0], pairs)
	}
	if err != nil {
		return 0, nil, tm, err
	}
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return 0, nil, tm, fmt.Errorf("wire: writing request: %w", err)
	}
	c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	typ, payload, err := c.fr.Read()
	if err != nil {
		return 0, nil, tm, err
	}
	switch typ {
	case want:
	case TypeError:
		re, derr := DecodeError(payload)
		if derr != nil {
			return 0, nil, tm, derr
		}
		return 0, nil, tm, re
	default:
		return 0, nil, tm, fmt.Errorf("wire: unexpected frame type %d in response", typ)
	}
	if traced {
		generation, c.packed, tm, err = DecodeResolveResponseTraced(payload, c.packed[:0])
	} else {
		generation, c.packed, err = DecodeResolveResponse(payload, c.packed[:0])
	}
	if err != nil {
		return 0, nil, tm, err
	}
	if len(c.packed) != len(pairs) {
		return 0, nil, tm, fmt.Errorf("wire: response carries %d routes for %d pairs", len(c.packed), len(pairs))
	}
	if c.RTT != nil {
		c.RTT.Observe(time.Since(start).Nanoseconds())
	}
	return generation, c.packed, tm, nil
}
