package wire

// Protocol version 2: traced resolve frames. A v2 request prefixes
// the standard batch with a 25-byte trace context (trace id hi/lo,
// parent span id, flags) so the server can attach its spans to the
// client's trace; a v2 response suffixes the standard packed payload
// with a 32-byte timing trailer (total/decode/resolve/encode
// nanoseconds) so the client can split its measured RTT into queue
// time and server time. The trailer sits at the END of the payload so
// the resolve bytes proper — generation, count, packed words — are at
// the same offsets as a v1 response, byte for byte; the differential
// test relies on that.
//
// Old clients are unaffected: they send type-1 frames under version
// 1 and receive type-2 responses, exactly as before. Old servers
// reject type-4 frames at ParseHeader with the version error a v2
// client knows how to report.

import (
	"encoding/binary"
	"fmt"
)

const (
	// VersionTraced is the protocol version carried by traced frames
	// (types 4 and 5). Version-1 frames remain valid; the version a
	// header must carry is a function of its type.
	VersionTraced = 2

	// TypeResolveRequestTraced and TypeResolveResponseTraced are the
	// traced counterparts of types 1 and 2.
	TypeResolveRequestTraced  = 4
	TypeResolveResponseTraced = 5

	// TraceContextSize is the trace-context prefix of a traced
	// request: trace id hi (8) + lo (8) + span id (8) + flags (1).
	TraceContextSize = 25
	// TimingSize is the timing trailer of a traced response: total,
	// decode, resolve and encode nanoseconds, 8 bytes each.
	TimingSize = 32
)

// TraceContext is the wire form of a span context: enough for the
// server to mint child spans in the caller's trace and to honor the
// caller's sampling verdict. The zero value is "untraced".
type TraceContext struct {
	TraceHi, TraceLo uint64
	SpanID           uint64
	Flags            byte
}

// Timing is a traced response's server-side time attribution, all in
// nanoseconds of server monotonic time. Total covers the request from
// the frame's arrival to its response being framed, so it ends before
// the write that carries it; Decode (trace-context parse, count and
// length validation), Resolve (the fused lookup pass from request bytes
// to response words) and Encode (header, generation, count and trailer
// framing) are back-to-back stages that sum to it. Client RTT minus
// Total is the response write, the network and queueing.
type Timing struct {
	TotalNS   int64
	DecodeNS  int64
	ResolveNS int64
	EncodeNS  int64
}

// versionFor returns the protocol version a frame of the given type
// must carry.
//
//repro:hotpath
func versionFor(typ byte) byte {
	if typ == TypeResolveRequestTraced || typ == TypeResolveResponseTraced {
		return VersionTraced
	}
	return Version
}

// AppendResolveRequestTraced appends a traced resolve-request frame:
// the trace context, then the standard count+pairs batch.
//
//repro:hotpath
func AppendResolveRequestTraced(buf []byte, tc TraceContext, pairs [][2]int) ([]byte, error) {
	if len(pairs) > MaxPairs {
		return buf, fmt.Errorf("wire: batch of %d pairs exceeds limit %d: %w", len(pairs), MaxPairs, ErrTooLarge)
	}
	for _, p := range pairs {
		if p[0] < 0 || p[0] > MaxEndpoint || p[1] < 0 || p[1] > MaxEndpoint {
			return buf, fmt.Errorf("wire: pair (%d,%d) not encodable as uint32", p[0], p[1])
		}
	}
	buf = AppendHeader(buf, TypeResolveRequestTraced, TraceContextSize+4+8*len(pairs))
	buf = binary.BigEndian.AppendUint64(buf, tc.TraceHi)
	buf = binary.BigEndian.AppendUint64(buf, tc.TraceLo)
	buf = binary.BigEndian.AppendUint64(buf, tc.SpanID)
	buf = append(buf, tc.Flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pairs)))
	for _, p := range pairs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p[0]))
		buf = binary.BigEndian.AppendUint32(buf, uint32(p[1]))
	}
	return buf, nil
}

// ParseTraceContext reads the trace-context prefix of a traced
// resolve-request payload. The batch that follows starts at offset
// TraceContextSize, laid out exactly as a plain request's payload.
//
//repro:hotpath
func ParseTraceContext(payload []byte) (TraceContext, error) {
	var tc TraceContext
	if len(payload) < TraceContextSize+4 {
		return tc, fmt.Errorf("wire: traced resolve request payload too short (%d bytes)", len(payload))
	}
	tc.TraceHi = binary.BigEndian.Uint64(payload[0:8])
	tc.TraceLo = binary.BigEndian.Uint64(payload[8:16])
	tc.SpanID = binary.BigEndian.Uint64(payload[16:24])
	tc.Flags = payload[24]
	return tc, nil
}

// DecodeResolveRequestTraced parses a traced resolve-request payload,
// appending the batch to dst (pass dst[:0] to reuse) and returning
// the trace context with the extended slice.
//
//repro:hotpath
func DecodeResolveRequestTraced(payload []byte, dst [][2]int) (TraceContext, [][2]int, error) {
	tc, err := ParseTraceContext(payload)
	if err != nil {
		return tc, dst, err
	}
	dst, err = DecodeResolveRequest(payload[TraceContextSize:], dst)
	return tc, dst, err
}

// AppendResolveResponseTraced appends a traced resolve-response
// frame: the standard generation+count+packed payload followed by the
// timing trailer. Encode time is not known until the append finishes,
// so servers append with a partial Timing and patch the final bytes
// with PatchTiming once measured.
//
//repro:hotpath
func AppendResolveResponseTraced(buf []byte, generation uint64, packed []uint64, tm Timing) ([]byte, error) {
	if len(packed) > MaxPairs {
		return buf, fmt.Errorf("wire: response batch %d exceeds limit %d: %w", len(packed), MaxPairs, ErrTooLarge)
	}
	buf = AppendHeader(buf, TypeResolveResponseTraced, 12+8*len(packed)+TimingSize)
	buf = binary.BigEndian.AppendUint64(buf, generation)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(packed)))
	for _, p := range packed {
		buf = binary.BigEndian.AppendUint64(buf, p)
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(tm.TotalNS))
	buf = binary.BigEndian.AppendUint64(buf, uint64(tm.DecodeNS))
	buf = binary.BigEndian.AppendUint64(buf, uint64(tm.ResolveNS))
	buf = binary.BigEndian.AppendUint64(buf, uint64(tm.EncodeNS))
	return buf, nil
}

// PatchTiming overwrites the timing trailer of a complete traced
// response frame in place. The frame must end with a TimingSize
// trailer (any frame AppendResolveResponseTraced built qualifies).
//
//repro:hotpath
func PatchTiming(frame []byte, tm Timing) error {
	if len(frame) < HeaderSize+12+TimingSize {
		return fmt.Errorf("wire: frame of %d bytes too short to carry a timing trailer", len(frame))
	}
	off := len(frame) - TimingSize
	binary.BigEndian.PutUint64(frame[off:off+8], uint64(tm.TotalNS))
	binary.BigEndian.PutUint64(frame[off+8:off+16], uint64(tm.DecodeNS))
	binary.BigEndian.PutUint64(frame[off+16:off+24], uint64(tm.ResolveNS))
	binary.BigEndian.PutUint64(frame[off+24:off+32], uint64(tm.EncodeNS))
	return nil
}

// DecodeResolveResponseTraced parses a traced resolve-response
// payload, appending the packed words to dst (pass dst[:0] to reuse)
// and returning the serving generation and timing trailer with the
// extended slice.
//
//repro:hotpath
func DecodeResolveResponseTraced(payload []byte, dst []uint64) (generation uint64, packed []uint64, tm Timing, err error) {
	if len(payload) < 12+TimingSize {
		return 0, dst, tm, fmt.Errorf("wire: traced resolve response payload too short (%d bytes)", len(payload))
	}
	body := payload[:len(payload)-TimingSize]
	trailer := payload[len(payload)-TimingSize:]
	generation, dst, err = DecodeResolveResponse(body, dst)
	if err != nil {
		return 0, dst, tm, err
	}
	tm.TotalNS = int64(binary.BigEndian.Uint64(trailer[0:8]))
	tm.DecodeNS = int64(binary.BigEndian.Uint64(trailer[8:16]))
	tm.ResolveNS = int64(binary.BigEndian.Uint64(trailer[16:24]))
	tm.EncodeNS = int64(binary.BigEndian.Uint64(trailer[24:32]))
	return generation, dst, tm, nil
}
