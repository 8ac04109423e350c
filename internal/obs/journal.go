package obs

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// Event is one control-plane decision: a generation swap, a fault, an
// optimizer pass, a job placement. Events answer "why does the fabric
// look like this" — the question /stats counters cannot.
type Event struct {
	// Seq numbers events monotonically from 1; gaps in a Tail reveal
	// ring overwrites.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock recording time.
	Time time.Time `json:"time"`
	// Type names the decision ("generation.swap", "fail.link",
	// "optimize", "job.submit", ...). See docs/ARCHITECTURE.md for the
	// schema inventory.
	Type string `json:"type"`
	// Dur is how long the decision took (zero when not measured).
	Dur time.Duration `json:"dur_ns"`
	// Fields carries the decision's structured payload. Maps marshal
	// with sorted keys, so JSON output is deterministic.
	Fields map[string]any `json:"fields,omitempty"`
}

// Journal is a bounded ring of control-plane events with an optional
// structured-log sink. Appends overwrite the oldest entries once the
// ring is full; sequence numbers expose the loss. Control-plane rates
// are low (swaps, placements), so appends take a mutex — the hot
// resolve path never touches the journal.
type Journal struct {
	mu   sync.Mutex
	seq  uint64  // guarded by mu
	ring []Event // guarded by mu
	n    int     // occupied entries, <= len(ring); guarded by mu
	next int     // ring index the next event lands in; guarded by mu

	logger *slog.Logger
}

// NewJournal returns a journal retaining the last capacity events
// (minimum 1). A non-nil logger receives every event as a structured
// log record, so journal events and daemon logs interleave in one
// stream.
func NewJournal(capacity int, logger *slog.Logger) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{ring: make([]Event, capacity), logger: logger}
}

// Record appends an event and returns its sequence number.
func (j *Journal) Record(typ string, dur time.Duration, fields map[string]any) uint64 {
	now := time.Now()
	j.mu.Lock()
	j.seq++
	ev := Event{Seq: j.seq, Time: now, Type: typ, Dur: dur, Fields: fields}
	j.ring[j.next] = ev
	j.next = (j.next + 1) % len(j.ring)
	if j.n < len(j.ring) {
		j.n++
	}
	logger := j.logger
	j.mu.Unlock()
	if logger != nil {
		attrs := make([]slog.Attr, 0, len(fields)+2)
		attrs = append(attrs, slog.Uint64("seq", ev.Seq))
		if dur > 0 {
			attrs = append(attrs, slog.Duration("dur", dur))
		}
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			attrs = append(attrs, slog.Any(k, fields[k]))
		}
		logger.LogAttrs(context.Background(), slog.LevelInfo, typ, attrs...)
	}
	return ev.Seq
}

// Tail returns the most recent n events, oldest first. n <= 0 or
// beyond the retained count returns everything retained. The returned
// events are copies; Fields maps are shared and must be treated as
// immutable (recorders hand ownership to the journal).
func (j *Journal) Tail(n int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n <= 0 || n > j.n {
		n = j.n
	}
	out := make([]Event, n)
	// The newest event sits at next-1; walk back n entries.
	start := j.next - n
	if start < 0 {
		start += len(j.ring)
	}
	for i := 0; i < n; i++ {
		out[i] = j.ring[(start+i)%len(j.ring)]
	}
	return out
}

// Since returns every retained event with Seq > seq, oldest first: an
// empty, non-nil slice when there is none, so it encodes as a JSON list
// like every other list the daemon serves. Since(0) is the full
// retained tail. If events past seq were already overwritten, the
// result starts later than seq+1 — callers detect the gap by comparing
// the first returned Seq against seq+1.
func (j *Journal) Since(seq uint64) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The oldest retained event has sequence seq-n+1; everything the
	// caller has not seen is the newest min(n, j.seq-seq) entries.
	n := j.n
	if seq >= j.seq {
		n = 0
	} else if unseen := j.seq - seq; unseen < uint64(n) {
		n = int(unseen)
	}
	out := make([]Event, n)
	start := j.next - n
	if start < 0 {
		start += len(j.ring)
	}
	for i := 0; i < n; i++ {
		out[i] = j.ring[(start+i)%len(j.ring)]
	}
	return out
}

// Seq returns the sequence number of the newest event (0 when empty).
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Cap returns the ring capacity.
//
//lint:allow locks the ring slice header is immutable after NewJournal; only its contents need mu
func (j *Journal) Cap() int { return len(j.ring) }

// Logger returns the journal's sink, or a discard logger when none
// was configured — callers can always log adjacent to the event
// stream without a nil check.
func (j *Journal) Logger() *slog.Logger {
	if j.logger == nil {
		return slog.New(slog.DiscardHandler)
	}
	return j.logger
}
