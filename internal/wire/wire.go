// Package wire is the binary resolve protocol: the wire-speed front
// door that serves the fabric's packed route store at close to its
// in-process rate, where the HTTP/JSON path burns the budget on
// encode/decode and per-request allocation. Frames are
// length-prefixed over TCP with a fixed 8-byte header; a resolve
// request carries a batch of (src, dst) pairs and its response the
// matching packed route words — the store's in-memory encoding
// (internal/fabric packRoute), shipped verbatim, with
// fabric.PackedUnreachable marking unresolved slots — plus the
// generation the batch was served from.
//
// Frame layout (all integers big-endian):
//
//	offset  size  field
//	0       2     magic 0xFA57
//	2       1     version (1)
//	3       1     type: 1 resolve request, 2 resolve response, 3 error
//	4       4     payload length (bounds-checked before any allocation)
//	8       ...   payload
//
// Payloads:
//
//	resolve request:   count uint32, then count × (src uint32, dst uint32)
//	resolve response:  generation uint64, count uint32, then count × packed uint64
//	error:             code byte, then UTF-8 message (≤ MaxErrorLen)
//
// Requests may be pipelined on a connection: responses come back in
// request order, a burst's responses coalesced into a few large writes,
// and the server writes everything it owes before it waits for more
// input.
//
// The encoder/decoder pairs are append/reuse style so both sides run
// allocation-free in steady state. Clients reuse one request buffer and
// packed slice per connection. The server does not run the pair/word
// codec at all: it resolves straight from a request frame's bytes into
// the response buffer it reuses per connection (fabric.ResolveWire);
// DecodeResolveRequest and AppendResolveResponse are the client and
// in-process side of the same bytes, and the oracle the server is
// fuzzed against.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// Magic is the first two bytes of every frame.
	Magic = 0xFA57
	// Version is the protocol version this package speaks; frames
	// carrying any other version are rejected before their payload is
	// read.
	Version = 1

	// HeaderSize is the fixed frame header length.
	HeaderSize = 8

	// TypeResolveRequest, TypeResolveResponse and TypeError are the
	// defined frame types.
	TypeResolveRequest  = 1
	TypeResolveResponse = 2
	TypeError           = 3

	// MaxPairs bounds one batch; larger batches gain nothing (the
	// response would exceed the socket buffer many times over) and a
	// bound lets both sides pre-size buffers.
	MaxPairs = 65536
	// MaxPayload is the largest legal payload (a full traced
	// response: generation + count + MaxPairs packed words + timing
	// trailer). A header declaring more is a protocol error — the
	// reader never allocates past it.
	MaxPayload = 12 + 8*MaxPairs + TimingSize
	// MaxErrorLen bounds an error frame's message.
	MaxErrorLen = 512
	// MaxEndpoint is the largest encodable endpoint index (indexes are
	// uint32 on the wire; out-of-range values still resolve — to
	// PackedUnreachable — so a client may probe beyond the topology).
	MaxEndpoint = 1<<32 - 1
)

// Error codes carried by TypeError frames.
const (
	ErrCodeMalformed   = 1 // frame or payload failed to parse
	ErrCodeBadVersion  = 2 // unsupported protocol version
	ErrCodeBadType     = 3 // unexpected frame type
	ErrCodeOverflow    = 4 // declared payload exceeds MaxPayload
	ErrCodeServer      = 5 // server-side failure
	ErrCodeUnavailable = 6 // no complete frame arrived within the read deadline
)

// ErrTooLarge is returned when a header declares a payload beyond
// MaxPayload, or an encoder is asked to exceed MaxPairs/MaxErrorLen.
var ErrTooLarge = errors.New("wire: frame exceeds protocol limits")

// RemoteError is a decoded TypeError frame: the server's explanation
// for why it is closing the connection.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Msg)
}

// AppendHeader appends a frame header for a payload of the given type
// and length. The version byte follows the type: traced frames carry
// VersionTraced, everything else Version — so a v1-only peer rejects
// traced traffic at the header, before any payload parsing.
//
//repro:hotpath
func AppendHeader(buf []byte, typ byte, payloadLen int) []byte {
	var h [HeaderSize]byte
	binary.BigEndian.PutUint16(h[0:2], Magic)
	h[2] = versionFor(typ)
	h[3] = typ
	binary.BigEndian.PutUint32(h[4:8], uint32(payloadLen))
	return append(buf, h[:]...)
}

// ParseHeader validates an 8-byte frame header and returns its type
// and declared payload length. The length is checked against
// MaxPayload here, so callers can allocate afterwards without a bound
// check of their own.
//
//repro:hotpath
func ParseHeader(h []byte) (typ byte, payloadLen int, err error) {
	if len(h) < HeaderSize {
		return 0, 0, fmt.Errorf("wire: short header (%d bytes)", len(h))
	}
	if m := binary.BigEndian.Uint16(h[0:2]); m != Magic {
		return 0, 0, fmt.Errorf("wire: bad magic %#04x", m)
	}
	v := h[2]
	if v != Version && v != VersionTraced {
		return 0, 0, fmt.Errorf("wire: unsupported version %d (speak %d and %d)", v, Version, VersionTraced)
	}
	typ = h[3]
	switch typ {
	case TypeResolveRequest, TypeResolveResponse, TypeError,
		TypeResolveRequestTraced, TypeResolveResponseTraced:
	default:
		return 0, 0, fmt.Errorf("wire: unknown frame type %d", typ)
	}
	if v != versionFor(typ) {
		return 0, 0, fmt.Errorf("wire: frame type %d under version %d (want %d)", typ, v, versionFor(typ))
	}
	n := binary.BigEndian.Uint32(h[4:8])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("wire: declared payload %d exceeds limit %d: %w", n, MaxPayload, ErrTooLarge)
	}
	return typ, int(n), nil
}

// AppendResolveRequest appends a complete resolve-request frame for
// the batch. Every src/dst must be in [0, MaxEndpoint]; batches
// beyond MaxPairs are refused.
//
//repro:hotpath
func AppendResolveRequest(buf []byte, pairs [][2]int) ([]byte, error) {
	if len(pairs) > MaxPairs {
		return buf, fmt.Errorf("wire: batch of %d pairs exceeds limit %d: %w", len(pairs), MaxPairs, ErrTooLarge)
	}
	for _, p := range pairs {
		if p[0] < 0 || p[0] > MaxEndpoint || p[1] < 0 || p[1] > MaxEndpoint {
			return buf, fmt.Errorf("wire: pair (%d,%d) not encodable as uint32", p[0], p[1])
		}
	}
	buf = AppendHeader(buf, TypeResolveRequest, 4+8*len(pairs))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pairs)))
	for _, p := range pairs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p[0]))
		buf = binary.BigEndian.AppendUint32(buf, uint32(p[1]))
	}
	return buf, nil
}

// resolveRequestCount validates a resolve-request payload's shape and
// returns its pair count: the declared count within MaxPairs and
// matching the payload length exactly, so whatever is sized from it is
// bounded by the bytes actually received. The pairs start at offset 4.
//
//repro:hotpath
func resolveRequestCount(payload []byte) (int, error) {
	if len(payload) < 4 {
		return 0, fmt.Errorf("wire: resolve request payload too short (%d bytes)", len(payload))
	}
	count := binary.BigEndian.Uint32(payload[0:4])
	if count > MaxPairs {
		return 0, fmt.Errorf("wire: request batch %d exceeds limit %d: %w", count, MaxPairs, ErrTooLarge)
	}
	if len(payload) != 4+8*int(count) {
		return 0, fmt.Errorf("wire: resolve request declares %d pairs but carries %d bytes", count, len(payload)-4)
	}
	return int(count), nil
}

// DecodeResolveRequest parses a resolve-request payload, appending
// the batch to dst (pass dst[:0] to reuse its backing array) and
// returning the extended slice. The declared count must match the
// payload length exactly, so the appended length is bounded by the
// bytes actually received.
//
//repro:hotpath
func DecodeResolveRequest(payload []byte, dst [][2]int) ([][2]int, error) {
	count, err := resolveRequestCount(payload)
	if err != nil {
		return dst, err
	}
	for i := 0; i < count; i++ {
		off := 4 + 8*i
		dst = append(dst, [2]int{
			int(binary.BigEndian.Uint32(payload[off : off+4])),
			int(binary.BigEndian.Uint32(payload[off+4 : off+8])),
		})
	}
	return dst, nil
}

// AppendResolveResponse appends a complete resolve-response frame:
// the serving generation and one packed route word per requested
// pair.
//
//repro:hotpath
func AppendResolveResponse(buf []byte, generation uint64, packed []uint64) ([]byte, error) {
	if len(packed) > MaxPairs {
		return buf, fmt.Errorf("wire: response batch %d exceeds limit %d: %w", len(packed), MaxPairs, ErrTooLarge)
	}
	buf = AppendHeader(buf, TypeResolveResponse, 12+8*len(packed))
	buf = binary.BigEndian.AppendUint64(buf, generation)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(packed)))
	for _, p := range packed {
		buf = binary.BigEndian.AppendUint64(buf, p)
	}
	return buf, nil
}

// DecodeResolveResponse parses a resolve-response payload, appending
// the packed words to dst (pass dst[:0] to reuse) and returning the
// serving generation with the extended slice.
//
//repro:hotpath
func DecodeResolveResponse(payload []byte, dst []uint64) (generation uint64, packed []uint64, err error) {
	if len(payload) < 12 {
		return 0, dst, fmt.Errorf("wire: resolve response payload too short (%d bytes)", len(payload))
	}
	generation = binary.BigEndian.Uint64(payload[0:8])
	count := binary.BigEndian.Uint32(payload[8:12])
	if count > MaxPairs {
		return 0, dst, fmt.Errorf("wire: response batch %d exceeds limit %d: %w", count, MaxPairs, ErrTooLarge)
	}
	if len(payload) != 12+8*int(count) {
		return 0, dst, fmt.Errorf("wire: resolve response declares %d routes but carries %d bytes", count, len(payload)-12)
	}
	for i := 0; i < int(count); i++ {
		off := 12 + 8*i
		dst = append(dst, binary.BigEndian.Uint64(payload[off:off+8]))
	}
	return generation, dst, nil
}

// AppendError appends a complete error frame; messages beyond
// MaxErrorLen are truncated, never refused (the error path must not
// itself error).
//
//repro:hotpath
func AppendError(buf []byte, code byte, msg string) []byte {
	if len(msg) > MaxErrorLen {
		msg = msg[:MaxErrorLen]
	}
	buf = AppendHeader(buf, TypeError, 1+len(msg))
	buf = append(buf, code)
	return append(buf, msg...)
}

// DecodeError parses an error payload.
//
//repro:hotpath
func DecodeError(payload []byte) (*RemoteError, error) {
	if len(payload) < 1 {
		return nil, errors.New("wire: empty error payload")
	}
	if len(payload) > 1+MaxErrorLen {
		return nil, fmt.Errorf("wire: error payload %d bytes exceeds limit %d: %w", len(payload), 1+MaxErrorLen, ErrTooLarge)
	}
	return &RemoteError{Code: payload[0], Msg: string(payload[1:])}, nil
}

// FrameReader reads frames from a stream into one reusable buffer.
// The returned payload aliases that buffer, valid until the next
// Read. The buffer never grows past MaxPayload — a header declaring
// more fails before any allocation — so a hostile peer cannot make
// the reader balloon.
type FrameReader struct {
	r   io.Reader
	hdr [HeaderSize]byte
	buf []byte
}

// NewFrameReader returns a FrameReader over r. Wrap raw connections
// in a bufio.Reader first if small frames dominate.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Read reads the next frame, returning its type and payload. The
// payload is valid only until the next Read. io.EOF is returned
// verbatim on a clean close before any header byte; a close
// mid-frame is io.ErrUnexpectedEOF.
//
//repro:hotpath
func (fr *FrameReader) Read() (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: reading header: %w", err)
	}
	typ, n, err := ParseHeader(fr.hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	payload = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("wire: reading %d-byte payload: %w", n, err)
	}
	return typ, payload, nil
}
