package fabric

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/xgft"
)

func benchFabric(b *testing.B) *Fabric { return benchFabricTelemetry(b, false) }

func benchFabricTelemetry(b *testing.B, telemetry bool) *Fabric {
	b.Helper()
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 16})
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: telemetry})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkResolve measures single-pair lock-free resolution on a
// cached generation.
func BenchmarkResolve(b *testing.B) {
	f := benchFabric(b)
	n := f.Topology().Leaves()
	h := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = hashutil.Splitmix64(h)
		s := int(h % uint64(n))
		d := int(h >> 32 % uint64(n))
		if _, ok := f.Resolve(s, d); !ok {
			b.Fatal("resolve failed")
		}
	}
}

// BenchmarkResolveBatchPacked measures bulk resolution into packed
// words (no route materialization, zero allocations) on a bare fabric:
// the lookup alone, in its in-process []pair/[]word form.
func BenchmarkResolveBatchPacked(b *testing.B) {
	f := benchFabric(b)
	n := f.Topology().Leaves()
	const batch = 4096
	pairs := make([][2]int, batch)
	out := make([]uint64, batch)
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ResolveBatchPacked(pairs, out)
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// BenchmarkResolveBatchPackedObserved is the packed batch with
// full observability enabled — metrics registry, event journal and
// telemetry all attached. Per batch that is two timestamps, a histogram
// observe, sharded counter adds and a count shard's TryLock and Unlock;
// per pair a plain increment and a dirty mark in the shard. The bench
// gate holds its ratio to BenchmarkResolveBatchPacked in the same run
// to 2.2 (scripts/bench_baseline.json "ratios"): measured 1.8 (12.6 µs
// against 7.2 µs per 4096 pairs), and 4.1 (30.3 against 7.3 µs) when
// every pair was an atomic add into the shared matrix.
func BenchmarkResolveBatchPackedObserved(b *testing.B) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 16})
	reg := obs.NewRegistry()
	f, err := New(Config{
		Topo: tp, Algo: core.NewDModK(tp),
		Telemetry: true, Metrics: reg, Journal: obs.NewJournal(64, nil),
	})
	if err != nil {
		b.Fatal(err)
	}
	n := tp.Leaves()
	const batch = 4096
	pairs := make([][2]int, batch)
	out := make([]uint64, batch)
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ResolveBatchPacked(pairs, out)
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// BenchmarkResolveBatchPackedTraced is the packed batch with
// full observability plus a tracer (sampling off — the production
// default): per batch the tracing layer adds one root mint and the
// unsampled verdict — no clock read, no flight-recorder write. The
// bench gate holds it to the same regression budget as the untraced
// observed path.
func BenchmarkResolveBatchPackedTraced(b *testing.B) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 16})
	reg := obs.NewRegistry()
	tr := trace.New(trace.Config{SampleNum: 0, SampleDen: 1, RecorderCap: 4096})
	f, err := New(Config{
		Topo: tp, Algo: core.NewDModK(tp),
		Telemetry: true, Metrics: reg, Journal: obs.NewJournal(64, nil),
		Tracer: tr,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := tp.Leaves()
	const batch = 4096
	pairs := make([][2]int, batch)
	out := make([]uint64, batch)
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ResolveBatchPacked(pairs, out)
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// benchWireFabric is the fabric fabricd runs by default (telemetry,
// metrics, journal, tracer with sampling off) on XGFT(2;16,16;1,16) and
// a 4096-pair batch over the whole table laid out as a resolve request
// carries it.
func benchWireFabric(b *testing.B) (f *Fabric, req []byte) {
	return benchWireFabricOn(b, xgft.MustNew(2, []int{16, 16}, []int{1, 16}))
}

// benchWireFabricOn is benchWireFabric on another tree.
func benchWireFabricOn(b *testing.B, tp *xgft.Topology) (f *Fabric, req []byte) {
	b.Helper()
	f, err := New(Config{
		Topo: tp, Algo: core.NewDModK(tp),
		Telemetry: true, Metrics: obs.NewRegistry(), Journal: obs.NewJournal(64, nil),
		Tracer: trace.New(trace.Config{SampleNum: 0, SampleDen: 1, RecorderCap: 4096}),
	})
	if err != nil {
		b.Fatal(err)
	}
	n := tp.Leaves()
	pairs := make([][2]int, benchWireBatch)
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	return f, wirePairs(pairs)
}

const benchWireBatch = 4096

// BenchmarkResolveWire is what the binary front door serves per
// request frame: the fused pass over a 4096-pair batch in wire byte
// order, on the fabric fabricd runs by default. Compare with
// BenchmarkResolveBatchPackedTraced, the same fabric through the
// []pair/[]word form, which a server would bracket with a decode and
// an encode pass. Every line the pass touches — table, request, count
// shard — is cache-hot here; BenchmarkResolveWireCold is the same pass
// as the daemon meets it.
func BenchmarkResolveWire(b *testing.B) {
	f, req := benchWireFabric(b)
	words := make([]byte, 0, 8*benchWireBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ResolveWire(trace.SpanContext{}, req, words)
	}
	b.ReportMetric(float64(benchWireBatch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// coldSink keeps BenchmarkResolveWireCold's cache walk from being
// optimized away.
var coldSink byte

// BenchmarkResolveWireCold is BenchmarkResolveWire with the cache
// emptied before every batch: between two requests the live daemon's
// kernel copies 64 KB in and 32 KB out through the cache and the Go
// runtime parks and wakes the connection's goroutine, so the pass meets
// its table rows and count cells anywhere between hot and cold. With the
// timer stopped the benchmark walks an 8 MB buffer (every line, larger
// than L1 + L2), then times one batch, so it is the other end of the
// bracket. The daemon's own span around the pass (`daemon.resolve_us`,
// resolve_bulk) reads nearer this end than the cache-hot one. On the
// 2-vCPU AMD EPYC box, reading packed rows: 23–26 ns a pair live against
// 7.5 hot and 27 cold when every count was a locked add into the
// matrix, 15–18 live against 3.9 hot and 22 cold with the count shard.
// On a 2-vCPU Intel Xeon box (medians of six alternating runs), packed
// rows read 9.4 ns a pair hot and 24 cold, the guided base 11.6 hot and
// 22 cold: its lookup does more work per pair, but on a base and labels
// that stay in L1 instead of a 512 KB row table.
func BenchmarkResolveWireCold(b *testing.B) {
	f, req := benchWireFabric(b)
	resolveWireCold(b, f, req)
}

// BenchmarkResolveWireCold4096 is BenchmarkResolveWireCold on the
// 4 096-leaf XGFT(3;16,16,16;1,16,16): the batch's pairs spread over 16
// times the leaves, so what the pass reads per pair — the guided base,
// the leaves' labels, the 64 MB count shard — is that much larger and
// colder. On the Intel Xeon box it reads 82 ns a pair, 158 when the
// pass read a 128 MB packed-row table.
func BenchmarkResolveWireCold4096(b *testing.B) {
	f, req := benchWireFabricOn(b, xgft.MustNew(3, []int{16, 16, 16}, []int{1, 16, 16}))
	resolveWireCold(b, f, req)
}

// resolveWireCold times ResolveWire over req with the cache emptied
// before every batch.
func resolveWireCold(b *testing.B, f *Fabric, req []byte) {
	words := make([]byte, 0, 8*benchWireBatch)
	evict := make([]byte, 8<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for at := 0; at < len(evict); at += 64 {
			evict[at]++
			coldSink += evict[at]
		}
		b.StartTimer()
		f.ResolveWire(trace.SpanContext{}, req, words)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchWireBatch, "ns/pair")
}

// BenchmarkResolveWireParallel is the small-frame path under
// concurrency: every goroutine resolves 16-pair frames (resolve_small's
// size) of its own, so what is measured is the per-batch cost — the
// local root's unsampled verdict, clock, counters, and the count shard's acquire and release, two short
// critical sections on one mutex — against 16 pairs' worth of work. Run
// with -cpu 1,2: the per-pair atomics this replaced cost 16 locked adds
// a frame and never shared a lock.
func BenchmarkResolveWireParallel(b *testing.B) {
	f, req := benchWireFabric(b)
	const frame = 8 * 16
	var starts atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		words := make([]byte, 0, frame)
		at := int(starts.Add(1)) * 37 * frame % len(req) // goroutines start on different frames
		for pb.Next() {
			f.ResolveWire(trace.SpanContext{}, req[at:at+frame], words)
			if at += frame; at == len(req) {
				at = 0
			}
		}
	})
}

// BenchmarkResolveTelemetry is BenchmarkResolve with the flow
// counters enabled. A single resolve is a batch of one, so it pays the
// count shard's TryLock and Unlock for one pair: about 19 ns on top of
// BenchmarkResolve's 95 ns (medians of nine alternating runs), where
// the atomic add it replaced was 15. The batched forms are what the
// shard is for; this one is the debug path (GET /resolve, examples).
func BenchmarkResolveTelemetry(b *testing.B) {
	f := benchFabricTelemetry(b, true)
	n := f.Topology().Leaves()
	h := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = hashutil.Splitmix64(h)
		s := int(h % uint64(n))
		d := int(h >> 32 % uint64(n))
		if _, ok := f.Resolve(s, d); !ok {
			b.Fatal("resolve failed")
		}
	}
}

// BenchmarkOptimize measures one steady-state re-optimization pass
// (snapshot, the serving table and four candidates each scored with a
// flat census, no-swap decision) on the paper's cost-reduced tree
// XGFT(2;16,16;1,10) with all-pairs traffic observed.
func BenchmarkOptimize(b *testing.B) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 10})
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true})
	if err != nil {
		b.Fatal(err)
	}
	tel := f.Telemetry()
	n := tp.Leaves()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				tel.RecordN(s, d, 64)
			}
		}
	}
	// Converge once so the timed passes measure the steady regime:
	// serving table == best candidate, no swap per pass.
	if _, err := f.Optimize(OptimizeConfig{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Optimize(OptimizeConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNew measures building a fabric from nothing — packing the
// configured scheme's table, certifying it and publishing generation 0 —
// with telemetry off and a private cache, at 256 leaves and at 4 096. It
// reports what one build allocates (B/op) and the heap the built fabric
// keeps (retained-MB: live heap after a GC with the fabric held, less
// the live heap before it was built). A d-mod-k table is a guided base
// of h+1 words a leaf and holds no exception, so a fabric keeps about
// 0.29 MB at 4 096 leaves, and the gate checks the base once per (guide leaf,
// NCA level) slot, so the build grows about linearly in the leaves:
// scripts/bench.sh gates the 4 096 / 256 ratio, which the per-pair gate
// put in the hundreds.
func BenchmarkNew(b *testing.B) {
	for _, tp := range []*xgft.Topology{
		xgft.MustNew(2, []int{16, 16}, []int{1, 16}),
		xgft.MustNew(3, []int{16, 16, 16}, []int{1, 16, 16}),
	} {
		b.Run(fmt.Sprintf("leaves=%d", tp.Leaves()), func(b *testing.B) {
			b.ReportAllocs()
			var retained uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp)})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(f)
				retained += after.HeapAlloc - min(before.HeapAlloc, after.HeapAlloc)
				b.StartTimer()
			}
			b.ReportMetric(float64(retained)/float64(b.N)/(1<<20), "retained-MB")
		})
	}
}

// BenchmarkFailLinkSwap measures a full degrade cycle: derive under the
// larger view (scan, reroutes), certification of the rerouted routes,
// and generation swap.
func BenchmarkFailLinkSwap(b *testing.B) {
	f := benchFabric(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.FailLink(1, i%16, i/16%16); err != nil {
			b.StopTimer()
			if _, err := f.Heal(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			continue
		}
	}
}

// BenchmarkFailLinkSwap4096 measures one top-level fault at scale:
// d-mod-k on XGFT(3;16,16,16;1,16,16), each op failing another
// top-level link of a healed fabric (the heal is off the clock). Every
// source has a destination whose guide ascent crosses the link, so a
// row per touched source would be every row; the generation instead
// holds the rerouted words apart from the guided base. retained-MB is
// the heap the faulted generation keeps beyond the healthy one.
func BenchmarkFailLinkSwap4096(b *testing.B) {
	tp := xgft.MustNew(3, []int{16, 16, 16}, []int{1, 16, 16})
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp)})
	if err != nil {
		b.Fatal(err)
	}
	var retained uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := f.Heal(); err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		if _, err := f.FailLink(2, (5+i)%tp.NodesAt(2), (3+i/tp.NodesAt(2))%tp.W(2)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained += after.HeapAlloc - min(before.HeapAlloc, after.HeapAlloc)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(b.N)/(1<<20), "retained-MB")
}

// BenchmarkHeal measures the hot-swap back to the configured scheme's
// pinned healthy table: row sharing, nothing new to certify.
func BenchmarkHeal(b *testing.B) {
	f := benchFabric(b)
	if _, err := f.FailLink(1, 0, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Heal(); err != nil {
			b.Fatal(err)
		}
	}
}

// churnFeeds are the four traffic patterns a churn cycle rotates
// through on an n-leaf two-level tree of 16-port switches, the last one
// keyed by seed.
func churnFeeds(n int, seed uint64) (feeds [4][][2]int) {
	for k := range feeds {
		for s := 0; s < n; s++ {
			var d int
			switch k {
			case 0: // shift by one switch
				d = (s + 16) % n
			case 1: // transpose of the (switch, port) digits
				d = s%16*16 + s/16
			case 2: // d-mod-k's funnel: every source to residue 0 mod w2
				d = (s*10 + 10) % n
			default: // keyed-random permutation-like
				d = int(hashutil.Mix(seed, uint64(s)) % uint64(n))
			}
			if s != d {
				feeds[k] = append(feeds[k], [2]int{s, d})
			}
		}
	}
	return feeds
}

// BenchmarkChurnCycle measures one control cycle of the churn_mixed
// workload in process, on the paper's cost-reduced tree
// XGFT(2;16,16;1,10) with telemetry and metrics on as fabricd runs
// them: feed one of four rotating traffic patterns through the packed
// resolve path, re-optimize over it (threshold 5%, windowed), fail a
// top-level link, heal. Every operation that changes the table derives
// and certifies a generation, so ns/op is four resolves' worth of
// telemetry plus up to three generation swaps.
func BenchmarkChurnCycle(b *testing.B) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 10})
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	n := tp.Leaves()
	feeds := churnFeeds(n, 0xfeed)
	words := make([]uint64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed := feeds[i%len(feeds)]
		f.ResolveBatchPacked(feed, words[:len(feed)])
		if _, err := f.Optimize(OptimizeConfig{Threshold: 0.05, Reset: true}); err != nil {
			b.Fatal(err)
		}
		if _, err := f.FailLink(1, i%16, i/16%10); err != nil {
			b.Fatal(err)
		}
		if _, err := f.Heal(); err != nil {
			b.Fatal(err)
		}
	}
}
