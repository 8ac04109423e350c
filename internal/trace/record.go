package trace

import "sync/atomic"

// The flight recorder: a lock-free power-of-two ring of fixed-size
// span slots. Writers claim a monotonically increasing ticket with
// one atomic add — concurrent writers land in distinct slots until
// the ring wraps a full lap — and publish through a per-slot seqlock
// word encoding the ticket: 2t+1 while writing, 2t+2 when slot
// ticket t is complete. Readers accept a slot only when the seqlock
// word reads exactly 2t+2 both before and after copying the fields,
// so a slot being overwritten (by ticket t+capacity) is skipped, not
// torn. Every word is an atomic.Uint64, which keeps the race
// detector, the lock-free guarantee and the zero-allocation
// guarantee all satisfied at once.

// slotWords is the fixed slot size: seqlock word, trace id (2),
// span id, parent id, meta, start, dur, then MaxAttrs (key, val)
// pairs.
const slotWords = 8 + 2*MaxAttrs

// defaultRecorderCap is the flight-recorder capacity when the config
// leaves it zero.
const defaultRecorderCap = 4096

// rawSpan is a completed span in recorder form: plain words, no
// pointers, passed by value on the anomaly path so the hot path never
// leaks a span to the heap.
type rawSpan struct {
	trHi, trLo   uint64
	span, parent uint64
	meta         uint64 // nameID<<32 | nattrs<<8 | flags
	start, dur   int64
	attrs        [MaxAttrs]attr
}

type slot struct {
	w [slotWords]atomic.Uint64
}

// Recorder is the flight recorder: every span the tracer records, the
// most recent capacity of them retained. Construct through Tracer
// (Config.RecorderCap).
type Recorder struct {
	mask  uint64
	head  atomic.Uint64 // completed-span tickets issued
	slots []slot
}

func newRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = defaultRecorderCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{mask: uint64(n - 1), slots: make([]slot, n)}
}

// count returns the recorded-span total (not bounded by capacity).
func (r *Recorder) count() uint64 { return r.head.Load() }

// write claims the next slot and publishes raw into it.
//
//repro:hotpath
func (r *Recorder) write(raw *rawSpan) {
	t := r.head.Add(1) - 1
	sl := &r.slots[t&r.mask]
	sl.w[0].Store(2*t + 1)
	sl.w[1].Store(raw.trHi)
	sl.w[2].Store(raw.trLo)
	sl.w[3].Store(raw.span)
	sl.w[4].Store(raw.parent)
	sl.w[5].Store(raw.meta)
	sl.w[6].Store(uint64(raw.start))
	sl.w[7].Store(uint64(raw.dur))
	for i := 0; i < MaxAttrs; i++ {
		sl.w[8+2*i].Store(uint64(raw.attrs[i].key))
		sl.w[9+2*i].Store(uint64(raw.attrs[i].val))
	}
	sl.w[0].Store(2*t + 2)
}

// snapshot copies the most recent max completed spans, oldest first
// (max <= 0 means everything retained). Slots overwritten or still
// being written during the scan are skipped.
func (r *Recorder) snapshot(max int) []rawSpan {
	h := r.head.Load()
	lo := uint64(0)
	if n := uint64(len(r.slots)); h > n {
		lo = h - n
	}
	if max > 0 && h-lo > uint64(max) {
		lo = h - uint64(max)
	}
	out := make([]rawSpan, 0, h-lo)
	for ticket := lo; ticket < h; ticket++ {
		sl := &r.slots[ticket&r.mask]
		want := 2*ticket + 2
		if sl.w[0].Load() != want {
			continue
		}
		var raw rawSpan
		raw.trHi = sl.w[1].Load()
		raw.trLo = sl.w[2].Load()
		raw.span = sl.w[3].Load()
		raw.parent = sl.w[4].Load()
		raw.meta = sl.w[5].Load()
		raw.start = int64(sl.w[6].Load())
		raw.dur = int64(sl.w[7].Load())
		for i := 0; i < MaxAttrs; i++ {
			raw.attrs[i].key = uint32(sl.w[8+2*i].Load())
			raw.attrs[i].val = int64(sl.w[9+2*i].Load())
		}
		if sl.w[0].Load() != want {
			continue
		}
		out = append(out, raw)
	}
	return out
}

// SpanRecord is one decoded flight-recorder span, the JSON form
// /trace and blackbox bundles serve. Ids are fixed-width lowercase
// hex; Attrs marshals with sorted keys, so rendering is
// deterministic.
type SpanRecord struct {
	TraceID string           `json:"trace_id"`
	SpanID  string           `json:"span_id"`
	Parent  string           `json:"parent_id,omitempty"`
	Name    string           `json:"name"`
	Start   int64            `json:"start_ns"`
	Dur     int64            `json:"dur_ns"`
	Sampled bool             `json:"sampled"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}
