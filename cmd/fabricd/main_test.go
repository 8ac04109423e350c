package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func newDaemon(t *testing.T, spec string) *daemon {
	t.Helper()
	d, err := build(options{spec: spec, algo: "d-mod-k", policy: "balanced", evaluator: "analytic", seed: 1, telemetry: true, journalCap: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testMux(t *testing.T, spec string) *http.ServeMux {
	t.Helper()
	return newMux(newDaemon(t, spec), 0, false)
}

func do(t *testing.T, mux *http.ServeMux, method, target string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s %s: body %q is not JSON: %v", method, target, rec.Body.String(), err)
	}
	return rec.Code, body
}

func TestResolveHandler(t *testing.T) {
	mux := testMux(t, "2;8,8;1,8")
	code, body := do(t, mux, "GET", "/resolve?src=0&dst=63")
	if code != http.StatusOK {
		t.Fatalf("resolve: %d %v", code, body)
	}
	if body["src"] != float64(0) || body["dst"] != float64(63) || body["generation"] != float64(0) {
		t.Errorf("resolve body %v", body)
	}
	if _, ok := body["up"].([]any); !ok {
		t.Errorf("resolve body has no up-ports: %v", body)
	}
}

// TestResolveHandlerGenerationUnderSwap races GET /resolve against a
// FailLink/Heal loop (run with -race). The pair's route rides the link
// being failed, so even generations serve the healthy ascent and odd
// ones the reroute: whatever generation a response is tagged with, its
// ascent must be that generation's.
func TestResolveHandlerGenerationUnderSwap(t *testing.T) {
	d, err := build(options{spec: "2;8,8;1,8", algo: "d-mod-k", policy: "linear", evaluator: "analytic", seed: 1, telemetry: true, journalCap: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux := newMux(d, 0, false)
	resolve := func() (up string, generation int) {
		code, body := do(t, mux, "GET", "/resolve?src=0&dst=63")
		if code != http.StatusOK {
			t.Fatalf("resolve: %d %v", code, body)
		}
		return fmt.Sprint(body["up"]), int(body["generation"].(float64))
	}
	healthy, _ := d.f.Generation().Resolve(0, 63)
	fail := func() {
		if _, err := d.f.FailLink(1, 0, healthy.Up[1]); err != nil {
			t.Error(err)
		}
	}
	byParity := [2]string{}
	byParity[0], _ = resolve()
	fail()
	byParity[1], _ = resolve()
	if byParity[0] == byParity[1] {
		t.Fatalf("failing link (1,0,%d) did not move the route %s", healthy.Up[1], byParity[0])
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := d.f.Heal(); err != nil {
				t.Error(err)
			}
			fail()
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if up, gen := resolve(); up != byParity[gen%2] {
			t.Fatalf("generation %d answered %s, want %s", gen, up, byParity[gen%2])
		}
	}
}

func TestResolveHandlerRejectsBadBounds(t *testing.T) {
	mux := testMux(t, "2;8,8;1,8")
	for _, target := range []string{
		"/resolve?src=-1&dst=5",
		"/resolve?src=0&dst=64", // 64 leaves: valid dst is 0..63
		"/resolve?src=0&dst=notanint",
		"/resolve?dst=5",
	} {
		code, body := do(t, mux, "GET", target)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: code %d, want 400 (%v)", target, code, body)
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("GET %s: no structured error body: %v", target, body)
		}
	}
}

func TestFailLinkHandlerRejectsBadBounds(t *testing.T) {
	mux := testMux(t, "2;8,8;1,8")
	for _, target := range []string{
		"/fail-link?level=-1&index=0&port=0",
		"/fail-link?level=2&index=0&port=0", // levels with up-ports: 0, 1
		"/fail-link?level=1&index=8&port=0", // 8 level-1 switches: 0..7
		"/fail-link?level=1&index=0&port=8", // w2=8: ports 0..7
		"/fail-link?level=1&index=0",        // missing port
		"/fail-switch?level=0&index=0",      // leaves are not switches
		"/fail-switch?level=1&index=-3",
	} {
		code, body := do(t, mux, "POST", target)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s: code %d, want 400 (%v)", target, code, body)
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("POST %s: no structured error body: %v", target, body)
		}
	}
	// Sanity: in-range failure still works and swaps the generation.
	code, body := do(t, mux, "POST", "/fail-link?level=1&index=0&port=0")
	if code != http.StatusOK || body["seq"] != float64(1) || body["failed_wires"] != float64(1) {
		t.Fatalf("in-range fail-link: %d %v", code, body)
	}
	// Re-failing the same link is a conflict, not a client error.
	if code, _ := do(t, mux, "POST", "/fail-link?level=1&index=0&port=0"); code != http.StatusConflict {
		t.Errorf("double failure: code %d, want 409", code)
	}
}

func TestTelemetryHandler(t *testing.T) {
	mux := testMux(t, "2;8,8;1,8")
	for i := 0; i < 3; i++ {
		if code, body := do(t, mux, "GET", "/resolve?src=1&dst=9"); code != http.StatusOK {
			t.Fatalf("resolve: %d %v", code, body)
		}
	}
	do(t, mux, "GET", "/resolve?src=2&dst=17")
	code, body := do(t, mux, "GET", "/telemetry")
	if code != http.StatusOK {
		t.Fatalf("telemetry: %d %v", code, body)
	}
	if body["pairs"] != float64(2) || body["resolves"] != float64(4) {
		t.Errorf("telemetry body %v, want 2 pairs / 4 resolves", body)
	}
	top, _ := body["top"].([]any)
	if len(top) != 2 {
		t.Fatalf("top flows %v", body["top"])
	}
	first, _ := top[0].(map[string]any)
	if first["src"] != float64(1) || first["dst"] != float64(9) || first["count"] != float64(3) {
		t.Errorf("heaviest flow %v", first)
	}
}

// TestTelemetryHandlerIsOneSnapshot: pairs, resolves and top come from
// one snapshot, so under load they agree with one another. A feeder
// keeps resolving eight pairs — few enough for top to list them all —
// while the test polls: every reply's top counts must sum to its
// resolves and number its pairs. (The handler used to scan twice, top
// first and totals second, and every resolve between the two scans
// showed up as a total that top could not account for.)
func TestTelemetryHandlerIsOneSnapshot(t *testing.T) {
	d, err := build(options{spec: "2;8,8;1,8", algo: "d-mod-k", policy: "balanced", evaluator: "analytic", seed: 1, telemetry: true, journalCap: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux := newMux(d, 0, false)
	pairs := make([][2]int, 8)
	for i := range pairs {
		pairs[i] = [2]int{i, 8 + 5*i}
	}
	stop := make(chan struct{})
	var fed atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		words := make([]uint64, len(pairs))
		for {
			select {
			case <-stop:
				return
			default:
				d.f.ResolveBatchPacked(pairs, words)
				fed.Add(1)
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)
	var last float64
	for poll := 0; poll < 200 || last == 0; poll++ {
		before := fed.Load()
		code, body := do(t, mux, "GET", "/telemetry")
		if code != http.StatusOK {
			t.Fatalf("telemetry: %d %v", code, body)
		}
		top, _ := body["top"].([]any)
		sum := 0.0
		for _, fl := range top {
			sum += fl.(map[string]any)["count"].(float64)
		}
		resolves, _ := body["resolves"].(float64)
		if sum != resolves || body["pairs"] != float64(len(top)) {
			t.Fatalf("poll %d: top lists %d pairs and %v resolves, the totals say %v pairs and %v resolves", poll, len(top), sum, body["pairs"], resolves)
		}
		if resolves < last || resolves < float64(before)*float64(len(pairs)) {
			t.Fatalf("poll %d: %v resolves reported after %v, with %d batches of %d ended before the request", poll, resolves, last, before, len(pairs))
		}
		last = resolves
	}
}

func TestOptimizeHandler(t *testing.T) {
	// Slimmed tree + the d-mod-k funnel: every leaf of switch 0 sends
	// to a distinct destination in residue class 0 mod 4, so the
	// optimizer must find a strictly better table and swap.
	mux := testMux(t, "2;8,8;1,4")
	for s := 0; s < 8; s++ {
		target := "/resolve?src=" + itoa(s) + "&dst=" + itoa(8+s*4)
		if code, body := do(t, mux, "GET", target); code != http.StatusOK {
			t.Fatalf("resolve: %d %v", code, body)
		}
	}
	code, body := do(t, mux, "POST", "/optimize?threshold=0")
	if code != http.StatusOK {
		t.Fatalf("optimize: %d %v", code, body)
	}
	if body["swapped"] != true {
		t.Fatalf("optimize did not swap: %v", body)
	}
	if body["current_slowdown"] != float64(8) {
		t.Errorf("current slowdown %v, want 8", body["current_slowdown"])
	}
	cands, _ := body["candidates"].([]any)
	if len(cands) != 4 {
		t.Errorf("candidates %v", body["candidates"])
	}
	best, _ := body["best"].(string)
	stats, _ := body["stats"].(map[string]any)
	if best == "" || stats["algo"] != best || stats["seq"] != float64(1) {
		t.Errorf("swap result inconsistent: best %q stats %v", best, stats)
	}
	// The generation visible through /stats is the swapped one.
	if code, st := do(t, mux, "GET", "/stats"); code != http.StatusOK || st["algo"] != best {
		t.Errorf("stats after optimize: %d %v", code, st)
	}
	// Bad optimize parameters are client errors.
	for _, target := range []string{"/optimize?threshold=-1", "/optimize?threshold=x", "/optimize?reset=maybe"} {
		if code, _ := do(t, mux, "POST", target); code != http.StatusBadRequest {
			t.Errorf("POST %s: code %d, want 400", target, code)
		}
	}
}

func TestOptimizeHandlerWithoutTelemetry(t *testing.T) {
	d, err := build(options{spec: "2;4,4;1,4", algo: "d-mod-k", policy: "linear", evaluator: "analytic", seed: 1, telemetry: false, journalCap: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux := newMux(d, 0, false)
	if code, _ := do(t, mux, "POST", "/optimize"); code != http.StatusConflict {
		t.Errorf("optimize without telemetry: code %d, want 409", code)
	}
	if code, _ := do(t, mux, "GET", "/telemetry"); code != http.StatusConflict {
		t.Errorf("telemetry endpoint without telemetry: code %d, want 409", code)
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func TestJobEndpoints(t *testing.T) {
	mux := testMux(t, "2;8,8;1,4")
	// An empty scheduler snapshot.
	code, body := do(t, mux, "GET", "/jobs")
	if code != http.StatusOK || body["policy"] != "balanced" || body["free"] != float64(64) {
		t.Fatalf("initial snapshot: %d %v", code, body)
	}
	if jobs, ok := body["jobs"].([]any); !ok || len(jobs) != 0 {
		t.Fatalf("initial snapshot jobs: %v", body["jobs"])
	}
	// Submit a CG job; the response carries the placement and the
	// optimizer pass over the tenant mix.
	code, body = do(t, mux, "POST", "/jobs?app=cg&n=16&name=tenant-a")
	if code != http.StatusOK {
		t.Fatalf("submit: %d %v", code, body)
	}
	job, _ := body["job"].(map[string]any)
	if job["id"] != float64(1) || job["name"] != "tenant-a" || job["policy"] != "balanced" {
		t.Fatalf("submitted job %v", job)
	}
	if leaves, _ := job["leaves"].([]any); len(leaves) != 16 {
		t.Fatalf("job leaves %v", job["leaves"])
	}
	if _, ok := body["optimize"].(map[string]any); !ok {
		t.Fatalf("submit response has no optimizer pass: %v", body)
	}
	// A second job, then the snapshot shows both in submission order.
	if code, body = do(t, mux, "POST", "/jobs?app=perm&n=8"); code != http.StatusOK {
		t.Fatalf("second submit: %d %v", code, body)
	}
	code, body = do(t, mux, "GET", "/jobs")
	jobs, _ := body["jobs"].([]any)
	if code != http.StatusOK || len(jobs) != 2 || body["free"] != float64(64-24) {
		t.Fatalf("snapshot with tenants: %d %v", code, body)
	}
	first, _ := jobs[0].(map[string]any)
	if first["id"] != float64(1) || first["name"] != "tenant-a" {
		t.Fatalf("snapshot job order: %v", jobs)
	}
	// Release the first job.
	code, body = do(t, mux, "DELETE", "/jobs/1")
	if code != http.StatusOK || body["released"] != float64(1) {
		t.Fatalf("release: %d %v", code, body)
	}
	snap, _ := body["scheduler"].(map[string]any)
	if snap["free"] != float64(64-8) {
		t.Fatalf("post-release snapshot: %v", snap)
	}
	// Releasing it again is 404; garbage IDs are 400.
	if code, _ = do(t, mux, "DELETE", "/jobs/1"); code != http.StatusNotFound {
		t.Errorf("double release: code %d, want 404", code)
	}
	if code, _ = do(t, mux, "DELETE", "/jobs/banana"); code != http.StatusBadRequest {
		t.Errorf("garbage id: code %d, want 400", code)
	}
}

func TestJobSubmitRejectsBadRequests(t *testing.T) {
	mux := testMux(t, "2;8,8;1,8")
	for _, target := range []string{
		"/jobs",                  // missing n
		"/jobs?n=0",              // too small
		"/jobs?n=65",             // larger than the pool
		"/jobs?n=notanint",       // malformed
		"/jobs?n=8&app=spiral",   // unknown app
		"/jobs?n=24&app=cg",      // CG needs a power of two
		"/jobs?n=24&app=wrf",     // WRF needs a multiple of 16 >= 32
		"/jobs?n=8&bytes=-4",     // bad message size
		"/jobs?n=8&seed=notuint", // bad seed
	} {
		code, body := do(t, mux, "POST", target)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s: code %d, want 400 (%v)", target, code, body)
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("POST %s: no structured error body: %v", target, body)
		}
	}
	// A job that does not fit the free pool is a conflict, not a
	// client error.
	if code, _ := do(t, mux, "POST", "/jobs?n=64"); code != http.StatusOK {
		t.Fatalf("pool-filling job rejected: %d", code)
	}
	if code, _ := do(t, mux, "POST", "/jobs?n=1"); code != http.StatusConflict {
		t.Errorf("over-capacity job: code %d, want 409", code)
	}
}

// TestJobChurnRacingResolveBatch hammers the job endpoints while a
// resolver floods packed batch resolves (run with -race): scheduler-driven
// optimizer swaps must never disturb the lock-free resolve path.
func TestJobChurnRacingResolveBatch(t *testing.T) {
	d, err := build(options{spec: "2;8,8;1,4", algo: "d-mod-k", policy: "telemetry", evaluator: "analytic", seed: 1, telemetry: true, journalCap: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := d.f
	mux := newMux(d, 0, false)
	n := f.Topology().Leaves()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pairs := make([][2]int, 128)
			out := make([]uint64, len(pairs))
			for i := range pairs {
				pairs[i] = [2]int{(i + w) % n, (i * 11) % n}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, _ := f.ResolveBatchPacked(pairs, out); got != len(pairs) {
					t.Errorf("resolved %d/%d", got, len(pairs))
					return
				}
			}
		}(w)
	}
	for i := 0; i < 15; i++ {
		code, body := do(t, mux, "POST", "/jobs?app=cg&n=16")
		if code != http.StatusOK {
			t.Fatalf("submit %d: %d %v", i, code, body)
		}
		job, _ := body["job"].(map[string]any)
		id := int(job["id"].(float64))
		if code, body = do(t, mux, "DELETE", "/jobs/"+itoa(id)); code != http.StatusOK {
			t.Fatalf("release %d: %d %v", id, code, body)
		}
	}
	close(stop)
	wg.Wait()
}

// TestObservabilityEndpoints exercises the introspection surface: an
// enriched /healthz, the Prometheus exposition, and the event journal
// tail, all fed by real control-plane activity.
func TestObservabilityEndpoints(t *testing.T) {
	mux := testMux(t, "2;8,8;1,4")

	code, body := do(t, mux, "GET", "/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
	for _, key := range []string{"generation", "algo", "generation_age_ms", "uptime_ms", "journal_seq"} {
		if _, ok := body[key]; !ok {
			t.Errorf("healthz lacks %q: %v", key, body)
		}
	}
	if wl, ok := body["wire_listener"]; !ok || wl != nil {
		t.Errorf("healthz wire_listener = %v (present %v), want null", wl, ok)
	}

	// Drive some control-plane activity: a resolve, a submit, a
	// release, a fault and a heal.
	if code, b := do(t, mux, "GET", "/resolve?src=0&dst=9"); code != http.StatusOK {
		t.Fatalf("resolve: %d %v", code, b)
	}
	if code, b := do(t, mux, "POST", "/jobs?app=perm&n=8"); code != http.StatusOK {
		t.Fatalf("submit: %d %v", code, b)
	}
	if code, b := do(t, mux, "DELETE", "/jobs/1"); code != http.StatusOK {
		t.Fatalf("release: %d %v", code, b)
	}
	if code, b := do(t, mux, "POST", "/fail-link?level=1&index=0&port=0"); code != http.StatusOK {
		t.Fatalf("fail-link: %d %v", code, b)
	}
	if code, b := do(t, mux, "POST", "/heal"); code != http.StatusOK {
		t.Fatalf("heal: %d %v", code, b)
	}

	// The exposition carries instruments from every layer.
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE fabric_resolves_total counter",
		"# TYPE fabric_generation gauge",
		"fabric_generation_swaps_total",
		`sched_placements_total{policy="balanced"}`,
		"sched_fragmentation",
		"evaluate_cache_hits_total",
		"# TYPE core_algo_memo_hits_total counter",
		"core_algo_memo_misses_total",
		`fabric_resolve_batch_packed_ns{quantile="0.99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if strings.Contains(text, "core_table_cache_") {
		t.Error("exposition still carries the table cache's counters, which nothing the daemon does can move")
	}

	// The journal tail replays the activity in order.
	code, body = do(t, mux, "GET", "/events?n=0")
	if code != http.StatusOK {
		t.Fatalf("events: %d %v", code, body)
	}
	events, _ := body["events"].([]any)
	if len(events) == 0 {
		t.Fatalf("no events: %v", body)
	}
	types := map[string]int{}
	for _, e := range events {
		ev, _ := e.(map[string]any)
		types[ev["type"].(string)]++
	}
	for _, want := range []string{"generation.swap", "job.submit", "job.release", "optimize"} {
		if types[want] == 0 {
			t.Errorf("journal has no %q event (saw %v)", want, types)
		}
	}
	if code, b := do(t, mux, "GET", "/events?n=-1"); code != http.StatusBadRequest {
		t.Errorf("events with bad n: %d %v", code, b)
	}

	// No binary listener in this mux: /wire is a 404.
	if code, b := do(t, mux, "GET", "/wire"); code != http.StatusNotFound {
		t.Errorf("wire without listener: %d %v", code, b)
	}
}

// TestEmptyListsEncodeAsArrays: every list fabricd serves is a JSON
// array even when it is empty, so a client can iterate it without a
// null check. /events?since=<head> used to encode its empty result as
// null.
func TestEmptyListsEncodeAsArrays(t *testing.T) {
	d := tracedDaemon(t, "", 0)
	mux := newMux(d, 0, false)
	head := strconv.FormatUint(d.jnl.Seq(), 10)
	for _, c := range []struct{ target, want string }{
		{"/events?since=" + head, `"events":[]`},
		{"/events?since=" + head + "9", `"events":[]`},
		{"/jobs", `"jobs":[]`},
	} {
		req := httptest.NewRequest("GET", c.target, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("GET %s: %d %s, want a body with %s", c.target, rec.Code, rec.Body.String(), c.want)
		}
	}
}
