package wire

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/xgft"
)

// FuzzFrameReader feeds arbitrary byte streams to the frame reader:
// it must never panic, never hand back a payload beyond MaxPayload,
// and never grow its buffer past the protocol bound no matter what
// lengths the stream declares.
func FuzzFrameReader(f *testing.F) {
	req, _ := AppendResolveRequest(nil, [][2]int{{0, 1}, {5, 3}})
	resp, _ := AppendResolveResponse(nil, 7, []uint64{0, ^uint64(0), 1 << 56})
	f.Add(req)
	f.Add(resp)
	f.Add(AppendError(nil, ErrCodeMalformed, "nope"))
	f.Add(append(append([]byte{}, req...), resp...)) // two frames back to back
	f.Add([]byte{0xFA, 0x57, Version, TypeResolveRequest, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte("GET /resolve?src=0&dst=1 HTTP/1.1\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			typ, payload, err := fr.Read()
			if err != nil {
				if err == io.EOF && len(payload) != 0 {
					t.Fatalf("EOF with %d payload bytes", len(payload))
				}
				break
			}
			switch typ {
			case TypeResolveRequest, TypeResolveResponse, TypeError,
				TypeResolveRequestTraced, TypeResolveResponseTraced:
			default:
				t.Fatalf("reader returned undefined type %d", typ)
			}
			if len(payload) > MaxPayload {
				t.Fatalf("payload %d exceeds MaxPayload %d", len(payload), MaxPayload)
			}
			if cap(fr.buf) > MaxPayload {
				t.Fatalf("reader buffer grew to %d, past MaxPayload %d", cap(fr.buf), MaxPayload)
			}
		}
	})
}

// FuzzDecodeResolveRequest throws arbitrary payloads at the request
// decoder: no panic, no over-allocation (accepted batches are bounded
// by the bytes received), and every accepted payload re-encodes to
// the identical bytes (the codec is a bijection on valid frames).
func FuzzDecodeResolveRequest(f *testing.F) {
	good, _ := AppendResolveRequest(nil, [][2]int{{0, 1}, {1 << 20, 3}})
	f.Add(good[HeaderSize:])
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, payload []byte) {
		pairs, err := DecodeResolveRequest(payload, nil)
		if err != nil {
			return
		}
		if len(pairs) > MaxPairs {
			t.Fatalf("accepted %d pairs past MaxPairs %d", len(pairs), MaxPairs)
		}
		if 4+8*len(pairs) != len(payload) {
			t.Fatalf("accepted %d pairs from %d payload bytes", len(pairs), len(payload))
		}
		frame, err := AppendResolveRequest(nil, pairs)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(frame[HeaderSize:], payload) {
			t.Fatal("decode/encode round trip changed the payload")
		}
	})
}

// FuzzDecodeResolveResponse is the response-direction twin.
func FuzzDecodeResolveResponse(f *testing.F) {
	good, _ := AppendResolveResponse(nil, 3, []uint64{0, ^uint64(0), 2<<56 | 0x0107})
	f.Add(good[HeaderSize:])
	f.Add(make([]byte, 12))
	f.Fuzz(func(t *testing.T, payload []byte) {
		gen, packed, err := DecodeResolveResponse(payload, nil)
		if err != nil {
			return
		}
		if len(packed) > MaxPairs {
			t.Fatalf("accepted %d routes past MaxPairs %d", len(packed), MaxPairs)
		}
		if 12+8*len(packed) != len(payload) {
			t.Fatalf("accepted %d routes from %d payload bytes", len(packed), len(payload))
		}
		frame, err := AppendResolveResponse(nil, gen, packed)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(frame[HeaderSize:], payload) {
			t.Fatal("decode/encode round trip changed the payload")
		}
	})
}

// FuzzDecodeResolveRequestTraced covers the v2 request decoder: no
// panic, bounded batches, and bijective re-encoding (context prefix
// included).
func FuzzDecodeResolveRequestTraced(f *testing.F) {
	tc := TraceContext{TraceHi: 0xAB, TraceLo: 0xCD, SpanID: 0xEF, Flags: 1}
	good, _ := AppendResolveRequestTraced(nil, tc, [][2]int{{0, 1}, {1 << 20, 3}})
	f.Add(good[HeaderSize:])
	f.Add(make([]byte, TraceContextSize+4))
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		tc, pairs, err := DecodeResolveRequestTraced(payload, nil)
		if err != nil {
			return
		}
		if len(pairs) > MaxPairs {
			t.Fatalf("accepted %d pairs past MaxPairs %d", len(pairs), MaxPairs)
		}
		if TraceContextSize+4+8*len(pairs) != len(payload) {
			t.Fatalf("accepted %d pairs from %d payload bytes", len(pairs), len(payload))
		}
		frame, err := AppendResolveRequestTraced(nil, tc, pairs)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(frame[HeaderSize:], payload) {
			t.Fatal("decode/encode round trip changed the payload")
		}
	})
}

// FuzzDecodeResolveResponseTraced is the traced response twin,
// trailer included.
func FuzzDecodeResolveResponseTraced(f *testing.F) {
	tm := Timing{TotalNS: 100, DecodeNS: 10, ResolveNS: 60, EncodeNS: 20}
	good, _ := AppendResolveResponseTraced(nil, 3, []uint64{0, ^uint64(0)}, tm)
	f.Add(good[HeaderSize:])
	f.Add(make([]byte, 12+TimingSize))
	f.Fuzz(func(t *testing.T, payload []byte) {
		gen, packed, tm, err := DecodeResolveResponseTraced(payload, nil)
		if err != nil {
			return
		}
		if len(packed) > MaxPairs {
			t.Fatalf("accepted %d routes past MaxPairs %d", len(packed), MaxPairs)
		}
		if 12+8*len(packed)+TimingSize != len(payload) {
			t.Fatalf("accepted %d routes from %d payload bytes", len(packed), len(payload))
		}
		frame, err := AppendResolveResponseTraced(nil, gen, packed, tm)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(frame[HeaderSize:], payload) {
			t.Fatal("decode/encode round trip changed the payload")
		}
	})
}

// FuzzDecodeError rounds out the frame types.
func FuzzDecodeError(f *testing.F) {
	f.Add(AppendError(nil, ErrCodeOverflow, "too big")[HeaderSize:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		re, err := DecodeError(payload)
		if err != nil {
			return
		}
		if len(re.Msg) > MaxErrorLen {
			t.Fatalf("accepted %d-byte message past MaxErrorLen %d", len(re.Msg), MaxErrorLen)
		}
	})
}

// fusedOracle is one fabric served through the fused pass beside an
// identical one driven through the exported codec.
type fusedOracle struct {
	fused, oracle       *fabric.Fabric
	fusedReg, oracleReg *obs.Registry
	conn                *scriptConn
	c                   *serverConn
}

func newFusedOracle(f *testing.F, degrade bool) *fusedOracle {
	tp := xgft.MustNew(2, []int{4, 4}, []int{1, 2})
	mk := func(reg *obs.Registry) *fabric.Fabric {
		fab, err := fabric.New(fabric.Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true, Metrics: reg})
		if err != nil {
			f.Fatal(err)
		}
		if degrade { // leaf 3 loses its only up wire: real unreachable pairs, generation 1
			if _, err := fab.FailLink(0, 3, 0); err != nil {
				f.Fatal(err)
			}
		}
		return fab
	}
	o := &fusedOracle{fusedReg: obs.NewRegistry(), oracleReg: obs.NewRegistry(), conn: &scriptConn{}}
	o.fused, o.oracle = mk(o.fusedReg), mk(o.oracleReg)
	o.c = attach(f, &Server{Resolver: o.fused}, o.conn)
	return o
}

// check serves payload as one request frame and holds the bytes the
// server wrote, and everything the fabric counted, to the codec path.
func (o *fusedOracle) check(t *testing.T, payload []byte, traced bool) {
	typ := byte(TypeResolveRequest)
	var pairs [][2]int
	var derr error
	if traced {
		typ = TypeResolveRequestTraced
		_, pairs, derr = DecodeResolveRequestTraced(payload, nil)
	} else {
		pairs, derr = DecodeResolveRequest(payload, nil)
	}
	o.conn.writes = 0
	usable := o.c.serveFrame(typ, payload)
	if o.conn.writes != 1 {
		t.Fatalf("server wrote %d times for one frame", o.conn.writes)
	}
	got := o.conn.wrote
	if derr != nil {
		if want := AppendError(nil, ErrCodeMalformed, derr.Error()); usable || !bytes.Equal(got, want) {
			t.Fatalf("codec rejects (%v); server (usable=%v) wrote %q", derr, usable, got)
		}
		return
	}
	packed := make([]uint64, len(pairs))
	_, gen := o.oracle.ResolveBatchPacked(pairs, packed)
	var want []byte
	if traced {
		want, _ = AppendResolveResponseTraced(nil, gen, packed, Timing{})
		clear(got[len(got)-TimingSize:])
	} else {
		want, _ = AppendResolveResponse(nil, gen, packed)
	}
	if !usable || !bytes.Equal(got, want) {
		t.Fatalf("fused pass (usable=%v) wrote\n%x\ncodec path\n%x", usable, got, want)
	}
	for _, p := range pairs {
		if g, w := o.fused.Telemetry().Count(p[0], p[1]), o.oracle.Telemetry().Count(p[0], p[1]); g != w {
			t.Fatalf("telemetry%v = %d fused, %d through the codec", p, g, w)
		}
	}
	if g, w := o.fused.Telemetry().Total(), o.oracle.Telemetry().Total(); g != w {
		t.Fatalf("telemetry total %d fused, %d through the codec", g, w)
	}
	fs, cs := o.fusedReg.Snapshot(), o.oracleReg.Snapshot()
	for _, name := range []string{"fabric_resolves_total", "fabric_unresolved_total", "fabric_resolve_batches_total", "fabric_resolve_batch_packed_ns_count"} {
		if fs[name] != cs[name] {
			t.Fatalf("%s = %v fused, %v through the codec", name, fs[name], cs[name])
		}
	}
}

// FuzzFusedResolveMatchesCodec holds the serve path's fused pass to
// the exported codec it replaced there: for any request payload, plain
// or traced, the server either rejects exactly when the decoder does,
// with the decoder's words, or answers with the bytes of
// DecodeResolveRequest → Fabric.ResolveBatchPacked →
// AppendResolveResponse, from the same generation, having counted the
// same resolves, misses, batches and per-pair telemetry — on a healthy
// generation and on a fault view with unreachable pairs.
func FuzzFusedResolveMatchesCodec(f *testing.F) {
	mixed := [][2]int{{0, 1}, {3, 5}, {5, 3}, {7, 7}, {16, 0}, {0, 1 << 31}, {15, 14}}
	v1, _ := AppendResolveRequest(nil, mixed)
	v2, _ := AppendResolveRequestTraced(nil, TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 3, Flags: 1}, mixed)
	f.Add(v1[HeaderSize:], false)
	f.Add(v2[HeaderSize:], true)
	f.Add([]byte{0, 0, 0, 0}, false)
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2}, false) // declares 2, carries 1
	f.Add(v1[HeaderSize:len(v1)-3], false)                   // truncated mid-pair
	f.Add(v2[HeaderSize:HeaderSize+TraceContextSize], true)  // context, no batch
	healthy, degraded := newFusedOracle(f, false), newFusedOracle(f, true)
	f.Fuzz(func(t *testing.T, payload []byte, traced bool) {
		healthy.check(t, payload, traced)
		degraded.check(t, payload, traced)
	})
}
