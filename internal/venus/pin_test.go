package venus

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// deliveredHash folds a delivery sequence into one word: every field,
// in completion order. Two runs hash equal only if the same messages
// completed in the same order at the same times.
func deliveredHash(ds []Delivery) uint64 {
	h := uint64(len(ds))
	for _, d := range ds {
		h = hashutil.Fold(h, uint64(d.Src), uint64(d.Dst), uint64(d.Bytes), uint64(d.Tag),
			uint64(d.InjectedAt), uint64(d.DeliveredAt))
	}
	return h
}

// TestCGTransposePinned holds the simulator to the behaviour recorded
// at the commit before the calendar lanes and per-channel callbacks
// (PR 15's parent): the constants below were produced by that commit's
// closure-per-event loop and binary-heap calendar, so any change to
// event order, arbitration or timing moves at least one of them.
func TestCGTransposePinned(t *testing.T) {
	tp := paperTree(t, 10)
	phases, err := pattern.CGPhases(128, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	transpose := phases[len(phases)-1]
	algo := core.NewDModK(tp)
	for _, tc := range []struct {
		name       string
		cutThrough bool
		makespan   eventq.Time
		processed  uint64
		segments   uint64
		delivered  uint64
	}{
		{"store-and-forward", false, pinSFMakespan, pinSFProcessed, pinSFSegments, pinSFDelivered},
		{"cut-through", true, pinCTMakespan, pinCTProcessed, pinCTSegments, pinCTDelivered},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CutThrough = tc.cutThrough
			s, err := New(tp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range transpose.Flows {
				m := Message{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes}
				if f.Src != f.Dst {
					m.Route = algo.Route(f.Src, f.Dst)
				}
				if err := s.Inject(m); err != nil {
					t.Fatal(err)
				}
			}
			end, err := s.Run(EventBudget(transpose, cfg))
			if err != nil {
				t.Fatal(err)
			}
			got := [4]uint64{uint64(end), s.Q.Processed(), s.SegmentsMoved, deliveredHash(s.Delivered())}
			want := [4]uint64{uint64(tc.makespan), tc.processed, tc.segments, tc.delivered}
			if got != want {
				t.Errorf("makespan, processed, segments, delivered hash = %d %d %d %#x, parent recorded %d %d %d %#x",
					got[0], got[1], got[2], got[3], want[0], want[1], want[2], want[3])
			}
		})
	}
}

// Recorded at commit 2165a6c (the parent of the lane calendar), except
// the event counts, recorded since venus schedules no credit return or
// ejection that cannot change the schedule.
const (
	pinSFMakespan  = 934016
	pinSFProcessed = 28192
	pinSFSegments  = 14336
	pinSFDelivered = 0x847d928fd0de7c2b
	pinCTMakespan  = 921824
	pinCTProcessed = 28176
	pinCTSegments  = 14336
	pinCTDelivered = 0x21dcf961139178e5
)

// TestThroughputInputPinned pins the root BenchmarkSimulatorThroughput
// input — Random on XGFT(2;16,16;1,8) under a 64 KB keyed random
// permutation — to the makespan, event count, segment count and
// delivery sequence recorded at commit 4c714fa, the last whose
// calendar held a closure per event and whose segments moved by
// pointer, except the event count, recorded since venus schedules no
// credit return or ejection that cannot change the schedule. The
// benchmark's events/run is the second of them.
func TestThroughputInputPinned(t *testing.T) {
	tp := paperTree(t, 8)
	p := pattern.KeyedRandomPermutation(256, 64*1024, 5)
	algo := core.NewRandom(tp, 9)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Flows {
		if err := s.Inject(Message{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes, Route: algo.Route(f.Src, f.Dst)}); err != nil {
			t.Fatal(err)
		}
	}
	end, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	got := [4]uint64{uint64(end), s.Q.Processed(), s.SegmentsMoved, deliveredHash(s.Delivered())}
	want := [4]uint64{1323136, 132145, 63616, 0xeba80c7cba2991ba}
	if got != want {
		t.Errorf("makespan, processed, segments, delivered hash = %d %d %d %#x, parent recorded %d %d %d %#x",
			got[0], got[1], got[2], got[3], want[0], want[1], want[2], want[3])
	}
}

// TestAdapterQueuesRetire sends 10 000 messages from one leaf, three
// in flight at a time. An injection channel arbitrates among the
// messages its adapter is currently sending, so the leaf's up-ports
// may hold at most three virtual queues between them at any moment and
// none at the end — and retiring the spent ones must not disturb the
// round-robin order, which the delivery hashes recorded at the parent
// commit pin. The adaptive case runs on a tree whose leaves have two
// up-ports, so one message's class lives on several channels.
func TestAdapterQueuesRetire(t *testing.T) {
	for _, tc := range []struct {
		name      string
		tp        *xgft.Topology
		adaptive  bool
		delivered uint64
	}{
		{"static", paperTree(t, 10), false, 0xeb4a828b5029b1a},
		{"adaptive", xgft.MustNew(2, []int{4, 4}, []int{2, 3}), true, 0x36c6fe629500a882},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := tc.tp
			s, err := New(tp, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			const total, window = 10000, 3
			algo := core.NewDModK(tp)
			queuesAtLeaf := func() int {
				n := 0
				for p := 0; p < tp.W(0); p++ {
					n += len(s.chans[s.upID(tp.UpChannelID(0, 0, p))].queues)
				}
				return n
			}
			next, maxQueues := 0, 0
			var send func()
			send = func() {
				if next >= total {
					return
				}
				i := next
				next++
				dst := 1 + (i*7)%(tp.Leaves()-1)
				m := Message{
					Src: 0, Dst: dst, Tag: i,
					Bytes:       int64(1+i%3)*1024 - int64(i%2)*100,
					OnDelivered: func(eventq.Time) { send() },
				}
				if tc.adaptive {
					err = s.InjectAdaptive(m)
				} else {
					m.Route = algo.Route(0, dst)
					err = s.Inject(m)
				}
				if err != nil {
					t.Fatal(err)
				}
				maxQueues = max(maxQueues, queuesAtLeaf())
			}
			for k := 0; k < window; k++ {
				send()
			}
			if _, err := s.Run(0); err != nil {
				t.Fatal(err)
			}
			if len(s.Delivered()) != total {
				t.Fatalf("delivered %d of %d messages", len(s.Delivered()), total)
			}
			if maxQueues > window || queuesAtLeaf() != 0 {
				t.Errorf("adapter held up to %d virtual queues (%d at the end) with %d messages in flight", maxQueues, queuesAtLeaf(), window)
			}
			if got := deliveredHash(s.Delivered()); got != tc.delivered {
				t.Errorf("delivery sequence hash %#x, parent recorded %#x", got, tc.delivered)
			}
		})
	}
}

// TestSteadyStateLoopDoesNotAllocate measures the event loop on a Sim
// that has already carried the same traffic once, so every FIFO, the
// calendar's lanes and the segment free list have reached their
// working size: from there an event is a pop, a few field updates and
// at most three appends into warm buffers.
func TestSteadyStateLoopDoesNotAllocate(t *testing.T) {
	tp := paperTree(t, 10)
	phases, err := pattern.CGPhases(128, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	transpose := phases[len(phases)-1]
	algo := core.NewDModK(tp)
	s, err := New(tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inject := func() {
		for _, f := range transpose.Flows {
			m := Message{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes}
			if f.Src != f.Dst {
				m.Route = algo.Route(f.Src, f.Dst)
			}
			if err := s.Inject(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	inject()
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	perPass := s.Q.Processed()
	inject()
	const runs, steps = 100, 500
	if uint64((runs+1)*steps) > perPass {
		t.Fatalf("a pass is only %d events, the measurement needs %d", perPass, (runs+1)*steps)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < steps; i++ {
			s.Q.Step()
		}
	})
	if allocs != 0 {
		t.Errorf("%.0f allocations per %d events in the warmed loop, want 0", allocs, steps)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.Q.Processed() != 2*perPass {
		t.Errorf("second pass processed %d events, first %d", s.Q.Processed()-perPass, perPass)
	}
}

// TestSegmentStateHoldsNoPointer: what moves on every hop — a segment,
// its adaptive hop state, and the elements of the wires and virtual
// queues that carry it — is plain words. A pointer in any of them
// would bring back a write barrier per segment hop.
func TestSegmentStateHoldsNoPointer(t *testing.T) {
	var c channel
	var cq classQueue
	for _, tc := range []struct {
		name string
		typ  reflect.Type
	}{
		{"segment", reflect.TypeOf(segment{})},
		{"adaptiveState", reflect.TypeOf(adaptiveState{})},
		{"wire element", reflect.TypeOf(c.wire.Pop).Out(0)},
		{"class queue element", reflect.TypeOf(cq.Pop).Out(0)},
	} {
		if p := pointerPath(tc.typ, tc.name); p != "" {
			t.Errorf("%s holds a pointer", p)
		}
	}
}

// pointerPath names the first field of t, by its path from name, whose
// kind holds a pointer the collector traces; "" means t holds none.
func pointerPath(t reflect.Type, name string) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return name + " (" + t.Kind().String() + ")"
	case reflect.Array:
		return pointerPath(t.Elem(), name+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerPath(t.Field(i).Type, name+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestTightCreditSchedulePinned sweeps the configurations where a
// credit return's skip bound, ⌊WireLatency/flit⌋+2 buffered credits, sits
// at, under and over the buffer depth: 1-, 2- and 8-flit segments,
// buffers of one to four segments, wires of zero to three flit times,
// store-and-forward and cut-through, four keyed uniform patterns.
// Oblivious d-mod-k runs on XGFT(2;4,4;1,2); adaptive routing, which
// reads the credits of busy channels, runs on XGFT(2;4,4;2,3), whose
// leaves have two up- and two down-ports. The folded (makespan,
// delivery hash) of every run is held to the value recorded before
// venus skipped any event, and the grid may not take more events than
// it took then.
func TestTightCreditSchedulePinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		tp        *xgft.Topology
		adaptive  bool
		hash      uint64
		processed uint64
	}{
		{"d-mod-k", xgft.MustNew(2, []int{4, 4}, []int{1, 2}), false, 0xcf3b0d9b508167c5, 2524032},
		{"adaptive", xgft.MustNew(2, []int{4, 4}, []int{2, 3}), true, 0xa3125d6f0ae05ffd, 2524032},
	} {
		t.Run(tc.name, func(t *testing.T) {
			algo := core.NewDModK(tc.tp)
			hash, processed := uint64(0), uint64(0)
			for _, buffer := range []int{1, 2, 3, 4} {
				for _, wire := range []eventq.Time{0, 32, 64, 96} {
					for _, cutThrough := range []bool{false, true} {
						for _, segment := range []int{8, 16, 64} {
							for draw := uint64(1); draw <= 4; draw++ {
								cfg := DefaultConfig()
								cfg.BufferSegments, cfg.WireLatency, cfg.CutThrough, cfg.SegmentBytes = buffer, wire, cutThrough, segment
								p := pattern.UniformRandom(16, 3, 200, draw)
								s, err := New(tc.tp, cfg)
								if err != nil {
									t.Fatal(err)
								}
								for _, f := range p.Flows {
									m := Message{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes}
									if tc.adaptive {
										err = s.InjectAdaptive(m)
									} else {
										m.Route = algo.Route(f.Src, f.Dst)
										err = s.Inject(m)
									}
									if err != nil {
										t.Fatal(err)
									}
								}
								end, err := s.Run(EventBudget(p, cfg))
								if err != nil {
									t.Fatal(err)
								}
								hash = hashutil.Fold(hash, uint64(end), deliveredHash(s.Delivered()))
								processed += s.Q.Processed()
							}
						}
					}
				}
			}
			if hash != tc.hash {
				t.Errorf("folded makespans and delivery hashes %#x, parent recorded %#x", hash, tc.hash)
			}
			if processed > tc.processed {
				t.Errorf("grid processed %d events, parent %d", processed, tc.processed)
			}
		})
	}
}
