package bench

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the harness around
// the layer's public functions (spans inside the program are a later
// change). Spans of one request share Req; Parent is the ID of the
// span that caused this one, 0 for a root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the recorder was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// SpanRecorder keeps the traced run's spans in memory and writes them
// out when the run ends. It is used from one goroutine.
type SpanRecorder struct {
	t0    time.Time
	spans []Span
}

// NewSpanRecorder starts an empty recorder.
func NewSpanRecorder() *SpanRecorder { return &SpanRecorder{t0: time.Now()} }

// Start opens a span and returns its ID.
func (r *SpanRecorder) Start(name string, parent int, req uint64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, StartNS: time.Since(r.t0).Nanoseconds()})
	return id
}

// End closes the span and returns its duration.
func (r *SpanRecorder) End(id int) time.Duration {
	s := &r.spans[id-1]
	s.EndNS = time.Since(r.t0).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

// Time records fn as one span and returns its duration.
func (r *SpanRecorder) Time(name string, parent int, req uint64, fn func()) time.Duration {
	id := r.Start(name, parent, req)
	fn()
	return r.End(id)
}

// Reparent makes span id a child of parent: for a call the harness had
// to make before it could open the span that logically contains it.
func (r *SpanRecorder) Reparent(id, parent int) { r.spans[id-1].Parent = parent }

// Spans returns the recorded spans in start order.
func (r *SpanRecorder) Spans() []Span { return r.spans }

// Durations returns every span's duration by name.
func (r *SpanRecorder) Durations() map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.EndNS-s.StartNS))
	}
	return out
}

// SelfTimes returns every span's self time by name: its duration minus
// the part of its interval its child spans cover. Children that
// overlap each other are not counted twice. A child recorded after its
// parent ended — the harness replays a layer's inner calls one by one
// once the outer call has returned, because it cannot record inside
// the program — covers as much of the parent as it lasted.
func (r *SpanRecorder) SelfTimes() map[string][]time.Duration {
	children := make(map[int][]Span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range r.spans {
		covered := covered(s, children[s.ID])
		self := s.EndNS - s.StartNS - covered
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], time.Duration(self))
	}
	return out
}

// covered returns how many nanoseconds of parent its children account
// for: the union of the nested children's intervals, plus the full
// duration of every replayed (disjoint) child.
func covered(parent Span, kids []Span) int64 {
	var total int64
	var nested []Span
	for _, k := range kids {
		if k.StartNS >= parent.EndNS || k.EndNS <= parent.StartNS {
			total += k.EndNS - k.StartNS
			continue
		}
		if k.StartNS < parent.StartNS {
			k.StartNS = parent.StartNS
		}
		if k.EndNS > parent.EndNS {
			k.EndNS = parent.EndNS
		}
		nested = append(nested, k)
	}
	sort.Slice(nested, func(i, j int) bool { return nested[i].StartNS < nested[j].StartNS })
	cursor := parent.StartNS
	for _, k := range nested {
		if k.EndNS <= cursor {
			continue
		}
		if k.StartNS > cursor {
			cursor = k.StartNS
		}
		total += k.EndNS - cursor
		cursor = k.EndNS
	}
	return total
}

// WriteFile writes the spans as one JSON document.
func (r *SpanRecorder) WriteFile(path string) error {
	data, err := json.Marshal(map[string]any{"spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
