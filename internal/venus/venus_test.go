package venus

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

func paperTree(t testing.TB, w2 int) *xgft.Topology {
	t.Helper()
	tp, err := xgft.NewSlimmedTree(16, 16, w2)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// smallCfg keeps tests fast: smaller segments and messages preserve
// all contention ratios.
func smallCfg() Config {
	cfg := DefaultConfig()
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{LinkBytesPerSec: -1, SegmentBytes: 1024, FlitBytes: 8, BufferSegments: 4},
		{LinkBytesPerSec: 1, SegmentBytes: 0, FlitBytes: 8, BufferSegments: 4},
		{LinkBytesPerSec: 1, SegmentBytes: 8, FlitBytes: 16, BufferSegments: 4},
		{LinkBytesPerSec: 1, SegmentBytes: 8, FlitBytes: 8, BufferSegments: 0},
		{LinkBytesPerSec: 1, SegmentBytes: 8, FlitBytes: 8, BufferSegments: 4, WireLatency: -1},
		// 8 B at 16 GB/s is half a nanosecond: the flit time would
		// truncate to zero and every segment serialize instantly.
		{LinkBytesPerSec: 16_000_000_000, SegmentBytes: 1024, FlitBytes: 8, BufferSegments: 4},
	}
	tp := paperTree(t, 16)
	for i, cfg := range bad {
		if _, err := New(tp, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	_, err := New(tp, bad[len(bad)-1])
	if msg := fmt.Sprint(err); !strings.Contains(msg, "8 B") || !strings.Contains(msg, "16000000000 B/s") {
		t.Errorf("sub-nanosecond flit rejected with %q, want both the flit size and the link speed named", msg)
	}
	for _, link := range []int64{DefaultConfig().LinkBytesPerSec, 8_000_000_000} {
		cfg := DefaultConfig()
		cfg.LinkBytesPerSec = link
		if _, err := New(tp, cfg); err != nil {
			t.Errorf("%d B/s links rejected: %v", link, err)
		}
	}
}

func TestFlitTimeMatchesPaperParameters(t *testing.T) {
	// 8 B at 2 Gb/s = 32 ns per flit; 1 KB segment = 4096 ns.
	cfg := DefaultConfig()
	if got := cfg.flitTime(); got != 32 {
		t.Errorf("flit time = %d ns, want 32", got)
	}
}

func TestSingleMessageLatency(t *testing.T) {
	// One 1 KB message, 4 hops on the 2-level tree: serialization on
	// each hop (store-and-forward) plus wire latency.
	tp := paperTree(t, 16)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	algo := core.NewDModK(tp)
	var deliveredAt eventq.Time
	err = s.Inject(Message{
		Src: 0, Dst: 16, Bytes: 1024, Route: algo.Route(0, 16),
		OnDelivered: func(at eventq.Time) { deliveredAt = at },
	})
	if err != nil {
		t.Fatal(err)
	}
	end, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// 4 hops x (4096 ns transmission + 32 ns wire) = 16512 ns.
	want := eventq.Time(4 * (4096 + 32))
	if end != want || deliveredAt != want {
		t.Errorf("completion = %d (callback %d), want %d", end, deliveredAt, want)
	}
}

func TestLocalMessageStaysLocal(t *testing.T) {
	// Same-switch pairs traverse only 2 hops.
	tp := paperTree(t, 16)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	algo := core.NewDModK(tp)
	err = s.Inject(Message{Src: 0, Dst: 1, Bytes: 1024, Route: algo.Route(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	end, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	want := eventq.Time(2 * (4096 + 32))
	if end != want {
		t.Errorf("completion = %d, want %d", end, want)
	}
}

func TestSelfMessage(t *testing.T) {
	tp := paperTree(t, 16)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	if err := s.Inject(Message{Src: 3, Dst: 3, Bytes: 1 << 20, OnDelivered: func(eventq.Time) { fired = true }}); err != nil {
		t.Fatal(err)
	}
	end, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("self message never delivered")
	}
	if end != DefaultConfig().WireLatency {
		t.Errorf("self message took %d ns", end)
	}
}

func TestInjectValidation(t *testing.T) {
	tp := paperTree(t, 16)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(Message{Src: 0, Dst: 1, Bytes: -1}); err == nil {
		t.Error("negative size accepted")
	}
	if err := s.Inject(Message{Src: 0, Dst: 16, Bytes: 10}); err == nil {
		t.Error("missing route accepted")
	}
}

func TestZeroByteMessageDelivered(t *testing.T) {
	tp := paperTree(t, 16)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	algo := core.NewDModK(tp)
	if err := s.Inject(Message{Src: 0, Dst: 16, Bytes: 0, Route: algo.Route(0, 16)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Delivered()); got != 1 {
		t.Errorf("delivered %d messages, want 1", got)
	}
}

func TestBandwidthSharingIsFair(t *testing.T) {
	// Two messages from different sources into the same destination
	// share the ejection link round-robin: both finish in ~2x the
	// solo time and within one segment of each other.
	tp := paperTree(t, 16)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	algo := core.NewDModK(tp)
	const bytes = 64 * 1024
	var t1, t2 eventq.Time
	if err := s.Inject(Message{Src: 0, Dst: 17, Bytes: bytes, Route: algo.Route(0, 17), OnDelivered: func(at eventq.Time) { t1 = at }}); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(Message{Src: 32, Dst: 17, Bytes: bytes, Route: algo.Route(32, 17), OnDelivered: func(at eventq.Time) { t2 = at }}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	soloSerialization := eventq.Time(bytes / 8 * 32) // 64 segments at 4096 ns
	slower := t1
	if t2 > slower {
		slower = t2
	}
	if slower < 2*soloSerialization {
		t.Errorf("shared ejection finished in %d ns, faster than serialization bound %d", slower, 2*soloSerialization)
	}
	diff := t1 - t2
	if diff < 0 {
		diff = -diff
	}
	if diff > 8*4096 {
		t.Errorf("unfair sharing: deliveries %d and %d ns apart", t1, t2)
	}
}

func TestAdapterRoundRobinInterleaving(t *testing.T) {
	// One source sending two messages: they interleave, so both take
	// about twice the solo time instead of one finishing first.
	tp := paperTree(t, 16)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	algo := core.NewDModK(tp)
	const bytes = 64 * 1024
	var t1, t2 eventq.Time
	s.Inject(Message{Src: 0, Dst: 17, Bytes: bytes, Route: algo.Route(0, 17), OnDelivered: func(at eventq.Time) { t1 = at }})
	s.Inject(Message{Src: 0, Dst: 33, Bytes: bytes, Route: algo.Route(0, 33), OnDelivered: func(at eventq.Time) { t2 = at }})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	injection := eventq.Time(2*bytes/8) * 32
	if t1 < injection || t2 < injection {
		t.Errorf("deliveries %d/%d beat the shared injection bound %d", t1, t2, injection)
	}
	diff := t1 - t2
	if diff < 0 {
		diff = -diff
	}
	if diff > 8*4096 {
		t.Errorf("messages not interleaved: deliveries %d and %d", t1, t2)
	}
}

func TestDisjointPairsRunAtFullBandwidth(t *testing.T) {
	// A permutation routed conflict-free completes in (close to) the
	// solo time of one message regardless of how many pairs run.
	tp := paperTree(t, 16)
	const bytes = 32 * 1024
	p := pattern.New(256)
	for i := 0; i < 16; i++ {
		p.Add(i, 16+i, bytes) // switch 0 -> switch 1, distinct ports under d-mod-k
	}
	end, err := RunPattern(tp, core.NewDModK(tp), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	solo := eventq.Time(bytes/8*32) + 3*4096 + 4*32 // pipeline fill
	if end > solo+4096*4 {
		t.Errorf("conflict-free permutation took %d ns, want about %d", end, solo)
	}
}

func TestCrossbarMatchesEndpointBound(t *testing.T) {
	// On the crossbar, WRF's completion is set by the busiest adapter
	// (2 messages in and out), not by any internal contention.
	p := pattern.WRF(4, 4, 16*1024)
	end, err := CrossbarTime(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Busiest adapter moves 2*16 KB = 32 KB = 32 segments.
	bound := eventq.Time(32 * 4096)
	if end < bound {
		t.Errorf("crossbar finished at %d, below the endpoint bound %d", end, bound)
	}
	if end > bound+bound/4 {
		t.Errorf("crossbar finished at %d, far above the endpoint bound %d", end, bound)
	}
}

func TestMeasuredSlowdownCGPathology(t *testing.T) {
	// The simulated counterpart of the paper's §VII-A analysis: CG's
	// transpose phase under D-mod-k on the full 16-ary 2-tree runs
	// ~7x slower than on the crossbar (8 even/odd sources per switch
	// share one upward port each; two are local fixed points).
	tp := paperTree(t, 16)
	ph, err := pattern.CGTransposePhase(128, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	s, err := MeasuredSlowdown(tp, core.NewDModK(tp), ph, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s < 6.0 || s > 8.0 {
		t.Errorf("measured CG phase-5 slowdown = %.2f, want ~7", s)
	}
}

func TestMeasuredSlowdownWRFDMODKNearOne(t *testing.T) {
	tp := paperTree(t, 16)
	p := pattern.WRF(16, 16, 32*1024)
	s, err := MeasuredSlowdown(tp, core.NewDModK(tp), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s > 1.3 {
		t.Errorf("WRF D-mod-k measured slowdown = %.2f, want ~1", s)
	}
}

func TestMeasuredSlowdownRandomWorseOnWRF(t *testing.T) {
	tp := paperTree(t, 16)
	p := pattern.WRF(16, 16, 32*1024)
	sRand, err := MeasuredSlowdown(tp, core.NewRandom(tp, 3), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sMod, err := MeasuredSlowdown(tp, core.NewDModK(tp), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sRand <= sMod {
		t.Errorf("random %.2f not worse than d-mod-k %.2f", sRand, sMod)
	}
}

func TestPhasedRun(t *testing.T) {
	tp := paperTree(t, 16)
	phases, err := pattern.CGPhases(128, 16*1024)
	if err != nil {
		t.Fatal(err)
	}
	total, err := RunPhases(tp, core.NewDModK(tp), phases, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Error("phased run took no time")
	}
	ref, err := CrossbarPhases(phases, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ref <= 0 || total <= ref {
		t.Errorf("network %d should exceed crossbar %d for CG under d-mod-k", total, ref)
	}
}

func TestSimulationIsDeterministic(t *testing.T) {
	tp := paperTree(t, 10)
	p := pattern.KeyedRandomPermutation(256, 8*1024, 21)
	a, err := RunPattern(tp, core.NewRandom(tp, 5), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPattern(tp, core.NewRandom(tp, 5), p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("two identical runs took %d and %d ns", a, b)
	}
}

func TestAllTrafficDelivered(t *testing.T) {
	tp := paperTree(t, 4)
	p := pattern.UniformRandom(256, 2, 4*1024, 9)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	algo := core.NewRandomNCAUp(tp, 1)
	for _, f := range p.Flows {
		if err := s.Inject(Message{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes, Route: algo.Route(f.Src, f.Dst)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Delivered()); got != len(p.Flows) {
		t.Errorf("delivered %d of %d messages", got, len(p.Flows))
	}
	if s.InFlight() != 0 {
		t.Errorf("%d messages still in flight", s.InFlight())
	}
	var bytes int64
	for _, d := range s.Delivered() {
		bytes += d.Bytes
		if d.DeliveredAt < d.InjectedAt {
			t.Error("delivery precedes injection")
		}
	}
	if bytes != p.TotalBytes() {
		t.Errorf("delivered %d bytes, want %d", bytes, p.TotalBytes())
	}
}

func TestBackpressureSmallBuffers(t *testing.T) {
	// With 1-segment buffers the network must still drain correctly
	// (no deadlock) even under heavy fan-in.
	tp := paperTree(t, 2)
	cfg := DefaultConfig()
	cfg.BufferSegments = 1
	p := pattern.New(256)
	for s := 0; s < 32; s++ {
		p.Add(s, 255-s, 8*1024)
	}
	end, err := RunPattern(tp, core.NewRandom(tp, 7), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Error("no time elapsed")
	}
}

func TestEventBudgetAborts(t *testing.T) {
	tp := paperTree(t, 16)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	algo := core.NewDModK(tp)
	s.Inject(Message{Src: 0, Dst: 16, Bytes: 1 << 20, Route: algo.Route(0, 16)})
	if _, err := s.Run(10); err == nil {
		t.Error("exhausted budget did not error")
	}
}
