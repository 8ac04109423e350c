package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"
)

// slimmed is the paper's slimmed tree, XGFT(2;16,16;1,10): 256 leaves,
// 16 level-1 switches with 10 up-ports each, 10 top switches.
const slimmed = "2;16,16;1,10"

// jobIDs lists the scheduler's jobs, in submission order.
func jobIDs(d *daemon) []uint64 {
	var ids []uint64
	for _, j := range d.s.Snapshot().Jobs {
		ids = append(ids, j.ID)
	}
	return ids
}

// TestAdminRefusals holds every parameter of every admin endpoint to
// its refusal, one row per request: status and error text are the
// reply a client gets. No refusal may publish a generation or touch
// the job list.
func TestAdminRefusals(t *testing.T) {
	long := strings.Repeat("x", maxTextBytes+1)
	const bytesWant = `bad "bytes": want an integer in [1,140737488355327]` // MaxInt64 / 256²
	for _, c := range []struct {
		method, target string
		code           int
		err            string
	}{
		{"GET", "/resolve?src=-1&dst=5", 400, `"src"=-1 out of range [0,255]`},
		{"GET", "/resolve?src=0&dst=256", 400, `"dst"=256 out of range [0,255]`},
		{"GET", "/resolve?src=0&dst=notanint", 400, `bad or missing "dst": strconv.Atoi: parsing "notanint": invalid syntax`},
		{"GET", "/resolve?dst=5", 400, `bad or missing "src": strconv.Atoi: parsing "": invalid syntax`},
		{"GET", "/resolve?src=x&dst=999", 400, `bad or missing "src": strconv.Atoi: parsing "x": invalid syntax`},

		{"POST", "/fail-link?level=-1&index=0&port=0", 400, `"level"=-1 out of range [0,1]`},
		{"POST", "/fail-link?level=2&index=0&port=0", 400, `"level"=2 out of range [0,1]`},
		{"POST", "/fail-link?level=1&index=16&port=0", 400, `"index"=16 out of range [0,15]`},
		{"POST", "/fail-link?level=1&index=0&port=10", 400, `"port"=10 out of range [0,9]`},
		{"POST", "/fail-link?level=0&index=0&port=1", 400, `"port"=1 out of range [0,0]`},
		{"POST", "/fail-link?level=1&index=0", 400, `bad or missing "port": strconv.Atoi: parsing "": invalid syntax`},
		// A refused level reads as 0, so index and port are checked
		// against level 0's bounds, never against a level that is not.
		{"POST", "/fail-link?level=99&index=9999&port=99", 400, `"level"=99 out of range [0,1]`},
		{"POST", "/fail-switch?level=0&index=0", 400, `"level"=0 out of range [1,2]`},
		{"POST", "/fail-switch?level=3&index=0", 400, `"level"=3 out of range [1,2]`},
		{"POST", "/fail-switch?level=1&index=-3", 400, `"index"=-3 out of range [0,15]`},
		{"POST", "/fail-switch?level=2&index=10", 400, `"index"=10 out of range [0,9]`},
		{"POST", "/fail-switch?level=1", 400, `bad or missing "index": strconv.Atoi: parsing "": invalid syntax`},

		{"POST", "/optimize?threshold=-1", 400, `bad "threshold": want a finite non-negative float`},
		{"POST", "/optimize?threshold=x", 400, `bad "threshold": want a finite non-negative float`},
		{"POST", "/optimize?threshold=NaN&reset=false", 400, `bad "threshold": want a finite non-negative float`},
		{"POST", "/optimize?threshold=Inf", 400, `bad "threshold": want a finite non-negative float`},
		{"POST", "/optimize?threshold=1e309", 400, `bad "threshold": want a finite non-negative float`},
		{"POST", "/optimize?reset=maybe", 400, `bad "reset": want a boolean`},

		{"POST", "/jobs", 400, `bad or missing "n": strconv.Atoi: parsing "": invalid syntax`},
		{"POST", "/jobs?n=0", 400, `"n"=0 out of range [1,256]`},
		{"POST", "/jobs?n=257", 400, `"n"=257 out of range [1,256]`},
		{"POST", "/jobs?n=notanint", 400, `bad or missing "n": strconv.Atoi: parsing "notanint": invalid syntax`},
		{"POST", "/jobs?n=8&app=spiral", 400, `unknown app "spiral" (want perm, uniform, alltoall, wrf or cg)`},
		{"POST", "/jobs?n=24&app=cg", 400, `pattern: CG needs a power-of-two process count >= 4, got 24`},
		{"POST", "/jobs?n=24&app=wrf", 400, `wrf needs a size that is a multiple of 16 and >= 32, got 24`},
		{"POST", "/jobs?n=8&bytes=-4", 400, bytesWant},
		{"POST", "/jobs?n=8&bytes=0", 400, bytesWant},
		{"POST", "/jobs?n=8&bytes=1e15", 400, bytesWant},
		{"POST", "/jobs?n=8&bytes=140737488355328", 400, bytesWant},
		{"POST", "/jobs?n=128&app=alltoall&bytes=9000000000000000000", 400, bytesWant},
		{"POST", "/jobs?n=8&seed=notuint", 400, `bad "seed": want an unsigned integer`},
		{"POST", "/jobs?n=8&seed=-1", 400, `bad "seed": want an unsigned integer`},
		{"POST", "/jobs?n=1&name=" + long, 400, `bad "name": want at most 256 bytes`},
		{"POST", "/jobs?n=1&app=" + long, 400, `bad "app": want at most 256 bytes`},
		{"POST", "/jobs?n=0&bytes=-4&name=" + long, 400, `"n"=0 out of range [1,256]`},
		{"DELETE", "/jobs/banana", 400, `bad job id "banana"`},
		{"DELETE", "/jobs/-1", 400, `bad job id "-1"`},
		{"DELETE", "/jobs/99", 404, `sched: no job 99`},

		{"GET", "/events?n=-1", 400, `bad "n": want a non-negative integer`},
		{"GET", "/events?n=x", 400, `bad "n": want a non-negative integer`},
		{"GET", "/events?since=x", 400, `bad "since": want an unsigned integer`},
		{"GET", "/events?since=-1", 400, `bad "since": want an unsigned integer`},
		{"GET", "/trace?n=-1", 400, `bad "n": want a non-negative integer`},
		{"GET", "/trace?n=1.5", 400, `bad "n": want a non-negative integer`},
		{"GET", "/blackbox", 404, `blackbox dumping is disabled (-blackbox-dir)`},
		{"POST", "/blackbox", 409, `blackbox dumping is disabled (-blackbox-dir)`},
		{"GET", "/wire", 404, `binary listener is disabled (-listen-binary)`},
	} {
		d := newDaemon(t, slimmed)
		mux := newMux(d, 0, false)
		// Observed traffic, so a refused optimize would have had
		// something to act on.
		for s := 0; s < 15; s++ {
			do(t, mux, "GET", "/resolve?src="+itoa(s)+"&dst="+itoa(16+16*s))
		}
		code, body := do(t, mux, c.method, c.target)
		if code != c.code || body["error"] != c.err {
			t.Errorf("%s %.80s: %d %q, want %d %q", c.method, c.target, code, body["error"], c.code, c.err)
		}
		if seq := d.f.Stats().Seq; seq != 0 {
			t.Errorf("%s %.80s published generation %d", c.method, c.target, seq)
		}
		if ids := jobIDs(d); len(ids) != 0 {
			t.Errorf("%s %.80s left jobs %v", c.method, c.target, ids)
		}
	}
}

// TestAdminAcceptsItsBounds: the longest name and the largest bytes
// are accepted, and at the largest bytes an all-to-all job scores as it
// does at 64 KiB: the bound keeps every sum inside int64.
func TestAdminAcceptsItsBounds(t *testing.T) {
	submit := func(target string) (job, opt map[string]any) {
		t.Helper()
		code, body := do(t, newMux(newDaemon(t, slimmed), 0, false), "POST", target)
		job, _ = body["job"].(map[string]any)
		opt, _ = body["optimize"].(map[string]any)
		if code != http.StatusOK || job == nil || opt == nil {
			t.Fatalf("POST %.80s: %d %v", target, code, body)
		}
		return job, opt
	}
	name := strings.Repeat("x", maxTextBytes)
	if job, _ := submit("/jobs?n=1&name=" + name); job["name"] != name {
		t.Errorf("job named %.20q…, want %d bytes of x", job["name"], maxTextBytes)
	}
	_, small := submit("/jobs?n=128&app=alltoall&bytes=65536")
	_, largest := submit("/jobs?n=128&app=alltoall&bytes=140737488355327")
	cur, want := largest["current_slowdown"].(float64), small["current_slowdown"].(float64)
	if math.Abs(cur-want) > 1e-9*want {
		t.Errorf("current_slowdown %v at the largest bytes, %v at 64 KiB", cur, want)
	}
	if r := largest["resolves"].(float64); r != 128*127*140737488355327.0 {
		t.Errorf("resolves %v, want 128·127 flows of 140737488355327 bytes", r)
	}
}

// TestThresholdRefusedAtStartup: fabricd exits 2 before serving when
// -threshold is not a finite non-negative number. The test binary runs
// itself as fabricd.
func TestThresholdRefusedAtStartup(t *testing.T) {
	if v := os.Getenv("FABRICD_TEST_THRESHOLD"); v != "" {
		os.Args = []string{"fabricd", "-xgft", "2;4,4;1,4", "-addr", "127.0.0.1:0", "-threshold", v}
		main()
		return
	}
	for _, v := range []string{"NaN", "-1", "Inf"} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestThresholdRefusedAtStartup$")
		cmd.Env = append(os.Environ(), "FABRICD_TEST_THRESHOLD="+v)
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "bad -threshold") || strings.Contains(string(out), "fabricd: serving") {
			t.Errorf("-threshold %s: %v, output:\n%s", v, err, out)
		}
	}
}

// FuzzAdmin drives a daemon on a 16-leaf tree with scripts of up to 8
// requests, one "METHOD /path?query" a line, and checks after every
// request: no panic and no 5xx; a 4xx publishes no generation and
// leaves the job list as it was; an optimize that swaps improved on
// the serving table; no reply reports a negative resolves; and the
// free pool plus the jobs' sizes is the leaf count.
func FuzzAdmin(f *testing.F) {
	for _, script := range []string{
		"GET /resolve?src=0&dst=12\nGET /resolve?src=1&dst=13\nPOST /optimize?threshold=NaN&reset=false\nPOST /optimize?threshold=NaN&reset=false\nPOST /optimize?threshold=NaN&reset=false",
		"POST /jobs?n=16&app=alltoall&bytes=9000000000000000000\nPOST /optimize?threshold=0",
		"POST /jobs?n=1&name=" + strings.Repeat("x", maxTextBytes+1) + "\nGET /jobs",
		"POST /jobs?n=8&app=cg\nPOST /fail-link?level=1&index=0&port=3\nDELETE /jobs/1\nPOST /heal\nGET /events?since=2",
		"POST /fail-switch?level=2&index=3\nPOST /jobs?n=4&app=alltoall&bytes=1000000\nGET /telemetry\nGET /healthz",
	} {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script string) {
		lines := strings.Split(script, "\n")
		if len(lines) > 8 {
			t.Skip()
		}
		d := newDaemon(t, "2;4,4;1,4")
		mux := newMux(d, 0, false)
		leaves := d.f.Topology().Leaves()
		for _, line := range lines {
			method, target, _ := strings.Cut(line, " ")
			path, query, _ := strings.Cut(target, "?")
			req := httptest.NewRequest("GET", "/", nil)
			req.Method, req.URL.Path, req.URL.RawQuery = method, path, query
			seq, ids := d.f.Stats().Seq, jobIDs(d)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			switch {
			case rec.Code >= 500:
				t.Fatalf("%q: %d %s", line, rec.Code, rec.Body)
			case rec.Code >= 400 && (d.f.Stats().Seq != seq || !slices.Equal(jobIDs(d), ids)):
				t.Fatalf("%q: %d moved the generation %d -> %d or the jobs %v -> %v", line, rec.Code, seq, d.f.Stats().Seq, ids, jobIDs(d))
			}
			var body any
			if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Fatalf("%q: body %q: %v", line, rec.Body, err)
				}
			}
			checkReply(t, line, body)
			snap := d.s.Snapshot()
			used := 0
			for _, j := range snap.Jobs {
				used += j.N
			}
			if snap.Free+used != leaves {
				t.Fatalf("%q: %d free and %d in jobs on %d leaves", line, snap.Free, used, leaves)
			}
		}
	})
}

// checkReply walks a decoded reply: every "resolves" is non-negative,
// and every optimize result that swapped scored its winner strictly
// below the serving table.
func checkReply(t *testing.T, line string, v any) {
	t.Helper()
	switch v := v.(type) {
	case map[string]any:
		if r, ok := v["resolves"].(float64); ok && r < 0 {
			t.Fatalf("%q: resolves %v", line, r)
		}
		if v["swapped"] == true {
			best, cur := v["best_slowdown"].(float64), v["current_slowdown"].(float64)
			if !(best < cur) {
				t.Fatalf("%q: swapped with best_slowdown %v, current_slowdown %v", line, best, cur)
			}
		}
		for _, e := range v {
			checkReply(t, line, e)
		}
	case []any:
		for _, e := range v {
			checkReply(t, line, e)
		}
	}
}

// TestVenusRefusesOversizedJob: under -evaluator venus a job whose
// phase is over evaluate.MaxVenusSegments is refused before anything
// simulates, with 422 under every policy, and no job stays placed: the
// telemetry policy scores placements and refuses before placing, the
// others place, then release the job when the pass that follows is
// refused. A 64 KiB job submitted next is placed and re-optimized; it
// would inherit the refusal if the oversized job had stayed placed.
func TestVenusRefusesOversizedJob(t *testing.T) {
	const target, refusal = "/jobs?n=8&app=perm&bytes=2000000000", "segments a simulation may inject"
	for _, policy := range []string{"linear", "balanced", "telemetry"} {
		d, err := build(options{spec: "2;8,8;1,4", algo: "d-mod-k", policy: policy, evaluator: "venus", seed: 1, telemetry: true, journalCap: 64}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mux := newMux(d, 0, false)
		start := time.Now()
		code, body := do(t, mux, "POST", target)
		if msg, _ := body["error"].(string); code != http.StatusUnprocessableEntity || !strings.Contains(msg, refusal) {
			t.Errorf("-sched %s: POST %s: %d %v, want 422 and %q in the error", policy, target, code, body, refusal)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("-sched %s: the refusal took %v", policy, took)
		}
		if seq, ids := d.f.Stats().Seq, jobIDs(d); seq != 0 || len(ids) != 0 {
			t.Errorf("-sched %s: published generation %d, jobs %v; want none", policy, seq, ids)
		}
		code, body = do(t, mux, "POST", "/jobs?n=8&app=perm")
		if _, failed := body["optimize_error"]; code != http.StatusOK || body["optimize"] == nil || failed {
			t.Errorf("-sched %s: a 64 KiB job after the refusal: %d %v, want 200 with an optimize pass", policy, code, body)
		}
	}
}
