package wire

import (
	"bufio"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/xgft"
)

const benchBatch = 4096

func benchPairs(n int) [][2]int {
	pairs := make([][2]int, benchBatch)
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	return pairs
}

// BenchmarkWireEncodeRequest measures framing one 4096-pair batch.
func BenchmarkWireEncodeRequest(b *testing.B) {
	pairs := benchPairs(256)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendResolveRequest(buf[:0], pairs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBatch)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkWireDecodeRequest measures parsing one 4096-pair batch.
func BenchmarkWireDecodeRequest(b *testing.B) {
	frame, err := AppendResolveRequest(nil, benchPairs(256))
	if err != nil {
		b.Fatal(err)
	}
	dst := make([][2]int, 0, benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = DecodeResolveRequest(frame[HeaderSize:], dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBatch)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkWireEncodeResponse measures framing 4096 packed routes.
func BenchmarkWireEncodeResponse(b *testing.B) {
	packed := make([]uint64, benchBatch)
	for i := range packed {
		packed[i] = 2<<56 | uint64(i&0xffff)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendResolveResponse(buf[:0], 1, packed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBatch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// BenchmarkWireDecodeResponse measures parsing 4096 packed routes.
func BenchmarkWireDecodeResponse(b *testing.B) {
	packed := make([]uint64, benchBatch)
	for i := range packed {
		packed[i] = 2<<56 | uint64(i&0xffff)
	}
	frame, err := AppendResolveResponse(nil, 1, packed)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]uint64, 0, benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, dst, err = DecodeResolveResponse(frame[HeaderSize:], dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBatch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// BenchmarkWireResolveEndToEnd is the daemon-path headline: full
// binary round trips (client encode → TCP loopback → server decode →
// fabric packed resolve → response → client decode) with the
// resolves/s metric the >1M/s acceptance bar reads.
func BenchmarkWireResolveEndToEnd(b *testing.B) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 16})
	f, err := fabric.New(fabric.Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &Server{Resolver: f}
	go srv.Serve(l)
	defer srv.Close()
	c, err := Dial(l.Addr().String(), 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	pairs := benchPairs(tp.Leaves())
	if _, _, err := c.ResolveBatchPacked(pairs); err != nil { // warm buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.ResolveBatchPacked(pairs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBatch)*float64(b.N)/b.Elapsed().Seconds(), "resolves/s")
}

// BenchmarkWireResolvePipelined is the small-frame headline: one op
// is a burst of 64 16-pair request frames written with one Write and
// drained with a FrameReader over loopback, so per-frame cost — header,
// fused pass, response framing, and the server's share of one write per
// burst — is all there is.
func BenchmarkWireResolvePipelined(b *testing.B) { benchPipelined(b, nil, nil) }

// BenchmarkWireResolvePipelinedObserved is the same burst with a
// metrics registry on server and fabric.
func BenchmarkWireResolvePipelinedObserved(b *testing.B) {
	benchPipelined(b, obs.NewRegistry(), nil)
}

// BenchmarkWireResolvePipelinedTraced adds a 0/1 tracer to server and
// fabric, as fabricd runs by default. Its ratio over …Observed is what
// tracing costs an unsampled frame; scripts/bench_baseline.json bounds
// it.
func BenchmarkWireResolvePipelinedTraced(b *testing.B) {
	reg := obs.NewRegistry()
	benchPipelined(b, reg, trace.New(trace.Config{SampleNum: 0, SampleDen: 1, Metrics: reg}))
}

// benchPipelined runs the pipelined burst against a fabric with
// telemetry on, and the given registry and tracer (either may be nil)
// on fabric and server.
func benchPipelined(b *testing.B, reg *obs.Registry, tr *trace.Tracer) {
	const frames, perFrame = 64, 16
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 16})
	f, err := fabric.New(fabric.Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true, Metrics: reg, Tracer: tr})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &Server{Resolver: f, Metrics: reg, Tracer: tr}
	go srv.Serve(l)
	defer srv.Close()
	conn, err := net.DialTimeout("tcp", l.Addr().String(), 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	pairs := benchPairs(tp.Leaves())
	var burst []byte
	for i := 0; i < frames; i++ {
		if burst, err = AppendResolveRequest(burst, pairs[i*perFrame:(i+1)*perFrame]); err != nil {
			b.Fatal(err)
		}
	}
	fr := NewFrameReader(bufio.NewReaderSize(conn, 64<<10))
	round := func() {
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(burst); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			if typ, _, err := fr.Read(); err != nil || typ != TypeResolveResponse {
				b.Fatalf("frame %d: type %d, err %v", i, typ, err)
			}
		}
	}
	round() // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(frames*perFrame)*float64(b.N)/b.Elapsed().Seconds(), "resolves/s")
}
