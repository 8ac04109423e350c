package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJournalTailOrderAndWraparound(t *testing.T) {
	j := NewJournal(4, nil)
	if j.Cap() != 4 || j.Len() != 0 || j.Seq() != 0 {
		t.Fatalf("fresh journal: cap %d len %d seq %d", j.Cap(), j.Len(), j.Seq())
	}
	if got := j.Tail(10); len(got) != 0 {
		t.Fatalf("empty tail returned %d events", len(got))
	}
	for i := 1; i <= 10; i++ {
		seq := j.Record("tick", 0, map[string]any{"i": i})
		if seq != uint64(i) {
			t.Fatalf("Record %d returned seq %d", i, seq)
		}
	}
	if j.Len() != 4 || j.Seq() != 10 {
		t.Fatalf("after 10 records: len %d seq %d", j.Len(), j.Seq())
	}
	// The ring retains the newest 4 (seqs 7..10), oldest first.
	tail := j.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("Tail(0) returned %d events", len(tail))
	}
	for i, ev := range tail {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
		if ev.Type != "tick" || ev.Fields["i"] != 7+i {
			t.Fatalf("tail[%d] = %+v", i, ev)
		}
	}
	// A bounded tail returns the newest n.
	tail = j.Tail(2)
	if len(tail) != 2 || tail[0].Seq != 9 || tail[1].Seq != 10 {
		t.Fatalf("Tail(2) = %+v", tail)
	}
	// Asking beyond the retained count returns what is retained.
	if got := j.Tail(100); len(got) != 4 {
		t.Fatalf("Tail(100) returned %d events", len(got))
	}
}

func TestJournalSince(t *testing.T) {
	j := NewJournal(4, nil)
	if got := j.Since(0); got == nil || len(got) != 0 {
		t.Fatalf("Since on empty journal = %+v", got)
	}
	for i := 1; i <= 10; i++ {
		j.Record("tick", 0, map[string]any{"i": i})
	}
	// Caller saw through seq 8: events 9 and 10 are new.
	got := j.Since(8)
	if len(got) != 2 || got[0].Seq != 9 || got[1].Seq != 10 {
		t.Fatalf("Since(8) = %+v", got)
	}
	// Caller saw through seq 2, but the ring only retains 7..10: the
	// gap (first Seq != 3) is visible to the caller.
	got = j.Since(2)
	if len(got) != 4 || got[0].Seq != 7 {
		t.Fatalf("Since(2) = %+v", got)
	}
	// Fully caught up (or ahead): nothing new, as an empty list.
	if got := j.Since(10); got == nil || len(got) != 0 {
		t.Fatalf("Since(10) = %+v", got)
	}
	if got := j.Since(99); got == nil || len(got) != 0 {
		t.Fatalf("Since(99) = %+v", got)
	}
	// Since(0) is the whole retained tail.
	if got := j.Since(0); len(got) != 4 || got[0].Seq != 7 {
		t.Fatalf("Since(0) = %+v", got)
	}
}

func TestJournalMinimumCapacity(t *testing.T) {
	j := NewJournal(0, nil)
	if j.Cap() != 1 {
		t.Fatalf("capacity clamped to %d, want 1", j.Cap())
	}
	j.Record("a", 0, nil)
	j.Record("b", 0, nil)
	tail := j.Tail(0)
	if len(tail) != 1 || tail[0].Type != "b" {
		t.Fatalf("Tail = %+v", tail)
	}
}

func TestJournalSlogSink(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	j := NewJournal(8, logger)
	j.Record("generation.swap", 3*time.Millisecond, map[string]any{
		"seq_to": uint64(2), "reason": "fail-link",
	})
	line := strings.TrimSpace(buf.String())
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("sink wrote invalid JSON %q: %v", line, err)
	}
	if rec["msg"] != "generation.swap" || rec["reason"] != "fail-link" || rec["seq"] != float64(1) {
		t.Fatalf("sink record = %v", rec)
	}
	if _, ok := rec["dur"]; !ok {
		t.Fatalf("sink record lacks dur: %v", rec)
	}
}

func TestJournalEventJSONDeterministic(t *testing.T) {
	j := NewJournal(2, nil)
	j.Record("optimize", time.Millisecond, map[string]any{"b": 1, "a": 2, "c": 3})
	ev := j.Tail(1)[0]
	got, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	// encoding/json sorts map keys, so the payload is stable.
	if !strings.Contains(string(got), `"fields":{"a":2,"b":1,"c":3}`) {
		t.Fatalf("event JSON = %s", got)
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(16, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Record("e", 0, map[string]any{"w": w})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			tail := j.Tail(8)
			for k := 1; k < len(tail); k++ {
				if tail[k].Seq != tail[k-1].Seq+1 {
					t.Errorf("tail seqs not contiguous: %d after %d", tail[k].Seq, tail[k-1].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if j.Seq() != 2000 {
		t.Fatalf("seq = %d, want 2000", j.Seq())
	}
}
