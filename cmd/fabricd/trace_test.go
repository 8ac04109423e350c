package main

import (
	"net/http"
	"testing"
	"time"
)

// tracedDaemon builds a daemon with sampling on and a blackbox spool.
func tracedDaemon(t *testing.T, dir string, budget time.Duration) *daemon {
	t.Helper()
	d, err := build(options{
		spec: "2;8,8;1,4", algo: "d-mod-k", policy: "linear", evaluator: "analytic",
		seed: 1, telemetry: true, journalCap: 64,
		sampleNum: 1, sampleDen: 1, spanBudget: budget, blackboxDir: dir,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTraceEndpoint: serving traffic shows up in GET /trace — span
// records, the name inventory, and the configured sampling rate.
func TestTraceEndpoint(t *testing.T) {
	d := tracedDaemon(t, "", 0)
	mux := newMux(d, 0, false)
	pairs := [][2]int{{0, 9}, {1, 10}, {2, 17}}
	out := make([]uint64, len(pairs))
	d.f.ResolveBatchPacked(pairs, out)

	code, body := do(t, mux, "GET", "/trace?n=8")
	if code != http.StatusOK {
		t.Fatalf("/trace: %d %v", code, body)
	}
	if body["sample"] != "1/1" {
		t.Errorf("sample = %v, want 1/1", body["sample"])
	}
	if body["count"].(float64) < 1 {
		t.Errorf("count = %v, want >= 1", body["count"])
	}
	spans, ok := body["spans"].([]any)
	if !ok || len(spans) == 0 {
		t.Fatalf("no spans in %v", body)
	}
	found := false
	for _, s := range spans {
		if s.(map[string]any)["name"] == "fabric.resolve_batch_packed" {
			found = true
		}
	}
	if !found {
		t.Errorf("batch span missing from /trace: %v", spans)
	}
	if code, body := do(t, mux, "GET", "/trace?n=-1"); code != http.StatusBadRequest {
		t.Errorf("/trace?n=-1: %d %v", code, body)
	}
}

// TestBlackboxEndpoints: with a spool dir, POST /blackbox forces a
// bundle and GET /blackbox lists it; a budget breach dumps one on its
// own. Without a dir both report the feature off.
func TestBlackboxEndpoints(t *testing.T) {
	d := tracedDaemon(t, t.TempDir(), time.Nanosecond)
	mux := newMux(d, 0, false)

	code, body := do(t, mux, "POST", "/blackbox")
	if code != http.StatusOK || body["bundle"] == "" {
		t.Fatalf("forced dump: %d %v", code, body)
	}
	// Any span outlives a 1ns budget: serving one batch trips the
	// anomaly hook and spools a second bundle.
	pairs := [][2]int{{0, 9}}
	out := make([]uint64, 1)
	d.f.ResolveBatchPacked(pairs, out)

	code, body = do(t, mux, "GET", "/blackbox")
	if code != http.StatusOK {
		t.Fatalf("/blackbox: %d %v", code, body)
	}
	bundles, ok := body["bundles"].([]any)
	if !ok || len(bundles) < 2 {
		t.Fatalf("bundles = %v, want the forced dump plus an anomaly dump", body["bundles"])
	}

	off := tracedDaemon(t, "", 0)
	omux := newMux(off, 0, false)
	if code, _ := do(t, omux, "GET", "/blackbox"); code != http.StatusNotFound {
		t.Errorf("GET /blackbox without a dir: %d, want 404", code)
	}
	if code, _ := do(t, omux, "POST", "/blackbox"); code != http.StatusConflict {
		t.Errorf("POST /blackbox without a dir: %d, want 409", code)
	}
}

// TestEventsSinceCursor: /events?since= returns only events past the
// cursor, and the first Seq exposes ring overruns to the client.
func TestEventsSinceCursor(t *testing.T) {
	d := tracedDaemon(t, "", 0)
	mux := newMux(d, 0, false)
	// Each fault/heal cycle journals events.
	for i := 0; i < 3; i++ {
		if _, err := d.f.FailLink(1, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.f.Heal(); err != nil {
		t.Fatal(err)
	}

	code, body := do(t, mux, "GET", "/events?since=0")
	if code != http.StatusOK {
		t.Fatalf("/events?since=0: %d %v", code, body)
	}
	all := body["events"].([]any)
	if len(all) == 0 {
		t.Fatal("no events since 0")
	}
	first := all[0].(map[string]any)["seq"].(float64)
	last := all[len(all)-1].(map[string]any)["seq"].(float64)
	if body["seq"].(float64) != last {
		t.Errorf("head seq %v != last event seq %v", body["seq"], last)
	}

	// Cursor at the penultimate event: exactly the tail past it.
	code, body = do(t, mux, "GET", "/events?since="+itoa(int(last-1)))
	if code != http.StatusOK {
		t.Fatalf("/events cursor: %d %v", code, body)
	}
	tail := body["events"].([]any)
	if len(tail) != 1 || tail[0].(map[string]any)["seq"].(float64) != last {
		t.Errorf("since=%v returned %v", last-1, tail)
	}
	// A cursor at the head returns nothing new: an empty list.
	code, body = do(t, mux, "GET", "/events?since="+itoa(int(last)))
	if events, ok := body["events"].([]any); code != http.StatusOK || !ok || len(events) != 0 {
		t.Errorf("since=head: %d %v", code, body["events"])
	}
	if code, _ := do(t, mux, "GET", "/events?since=x"); code != http.StatusBadRequest {
		t.Errorf("since=x: %d, want 400", code)
	}
	_ = first
}
