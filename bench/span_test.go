package bench

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsNestedAndReplayedChildrenOnce(t *testing.T) {
	r := &SpanRecorder{spans: []Span{
		{ID: 1, Name: "outer", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "inner", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "inner", StartNS: 30, EndNS: 60},      // overlaps span 2: the union is 10..60
		{ID: 4, Parent: 1, Name: "replayed", StartNS: 120, EndNS: 130}, // recorded after the parent ended
		{ID: 5, Parent: 3, Name: "leaf", StartNS: 35, EndNS: 45},
		{ID: 6, Name: "other", StartNS: 200, EndNS: 230},
	}}
	self := r.SelfTimes()
	want := map[string][]time.Duration{
		"outer":    {40}, // 100 - (60-10) - 10
		"inner":    {30, 20},
		"replayed": {10},
		"leaf":     {10},
		"other":    {30},
	}
	for name, ds := range want {
		got := self[name]
		if len(got) != len(ds) {
			t.Fatalf("%s: %d self times, want %d", name, len(got), len(ds))
		}
		for i := range ds {
			if got[i] != ds[i] {
				t.Errorf("%s[%d] self = %v, want %v", name, i, got[i], ds[i])
			}
		}
	}
	if d := r.Durations()["outer"]; len(d) != 1 || d[0] != 100 {
		t.Errorf("outer duration = %v", d)
	}
	// Children that cover more than the parent leave a self time of 0,
	// never a negative one.
	over := &SpanRecorder{spans: []Span{
		{ID: 1, Name: "outer", StartNS: 0, EndNS: 10},
		{ID: 2, Parent: 1, Name: "replayed", StartNS: 20, EndNS: 50},
	}}
	if got := over.SelfTimes()["outer"][0]; got != 0 {
		t.Errorf("over-covered self time = %v, want 0", got)
	}
}

func TestRecorderNestsAndReparents(t *testing.T) {
	r := NewSpanRecorder()
	early := r.Start("early", 0, 7)
	r.End(early)
	var inner int
	outer := r.Start("outer", 0, 7)
	r.Time("inner", outer, 7, func() { inner++ })
	r.End(outer)
	r.Reparent(early, outer)
	spans := r.Spans()
	if len(spans) != 3 || inner != 1 {
		t.Fatalf("%d spans, inner ran %d times", len(spans), inner)
	}
	if spans[0].Parent != outer || spans[2].Parent != outer || spans[1].Parent != 0 {
		t.Errorf("parents = %d, %d, %d", spans[0].Parent, spans[1].Parent, spans[2].Parent)
	}
	for _, s := range spans {
		if s.Req != 7 || s.EndNS < s.StartNS {
			t.Errorf("span %+v", s)
		}
	}
}
