package fabric

import (
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
// telemetry all attached. The bench gate holds it to the same
// regression budget as the bare path: per-batch instrumentation (two
// timestamps, a histogram observe, sharded counter adds) must stay in
// the noise.
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
// default): per batch the tracing layer adds one root mint, two clock
// reads and a flight-recorder write. The bench gate holds it to the
// same regression budget as the untraced observed path.
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

// BenchmarkResolveWire is what the binary front door serves per
// request frame: the fused pass over a 4096-pair batch in wire byte
// order, on the fabric fabricd runs by default (telemetry, metrics,
// journal, tracer with sampling off). Compare with
// BenchmarkResolveBatchPackedTraced, the same fabric through the
// []pair/[]word form, which a server would bracket with a decode and
// an encode pass.
func BenchmarkResolveWire(b *testing.B) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 16})
	f, err := New(Config{
		Topo: tp, Algo: core.NewDModK(tp),
		Telemetry: true, Metrics: obs.NewRegistry(), Journal: obs.NewJournal(64, nil),
		Tracer: trace.New(trace.Config{SampleNum: 0, SampleDen: 1, RecorderCap: 4096}),
	})
	if err != nil {
		b.Fatal(err)
	}
	n := tp.Leaves()
	const batch = 4096
	pairs := make([][2]int, batch)
	h := uint64(1)
	for i := range pairs {
		h = hashutil.Splitmix64(h)
		pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
	}
	req := wirePairs(pairs)
	words := make([]byte, 0, 8*batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ResolveWire(trace.SpanContext{}, req, words)
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// BenchmarkResolveTelemetry is BenchmarkResolve with the flow
// counters enabled: the acceptance bar is < 10% regression (one
// uncontended atomic add per resolve).
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
	var feeds [4][][2]int
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
				d = int(hashutil.Mix(0xfeed, uint64(s)) % uint64(n))
			}
			if s != d {
				feeds[k] = append(feeds[k], [2]int{s, d})
			}
		}
	}
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
