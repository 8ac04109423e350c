package repro_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLISmoke builds every cmd/* binary and runs it once with fast
// flags, asserting exit 0 and non-empty output — CI never exercised
// the entry points before, so flag or wiring rot went unnoticed until
// a human ran them.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/...", "./examples/subnetmgr")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/... ./examples/subnetmgr: %v\n%s", err, out)
	}

	cases := []struct {
		name string
		args []string
	}{
		{"experiments", []string{"-table1"}},
		{"experiments", []string{"-shift", "-seeds", "2"}},
		{"experiments", []string{"-placement", "-seeds", "2"}},
		{"experiments", []string{"-churn", "-seeds", "2"}},
		{"experiments", []string{"-fidelity", "-bytes", "2048"}},
		{"experiments", []string{"-adaptive", "-bytes", "2048"}},
		{"experiments", []string{"-fig2b", "-fig5b", "-engine", "simulated", "-bytes", "2048", "-seeds", "2"}},
		{"subnetmgr", nil},
		{"experiments", []string{"routes", "-xgft", "2;8,8;1,8", "-algo", "r-NCA-d", "-pattern", "shift:1"}},
		{"experiments", []string{"routes", "-xgft", "2;8,8;1,8", "-pattern", "permutation", "-seed", "3"}},
		{"experiments", []string{"topo", "-xgft", "2;4,4;1,4"}},
		{"experiments", []string{"point", "-xgft", "2;16,8;1,8", "-algo", "d-mod-k", "-app", "cg", "-engine", "analytic"}},
		{"experiments", []string{"point", "-xgft", "2;16,8;1,4", "-algo", "r-NCA-u", "-app", "cg", "-engine", "venus", "-bytes", "2048"}},
	}
	for _, c := range cases {
		c := c
		label := c.name
		if len(c.args) > 0 && !strings.HasPrefix(c.args[0], "-") {
			label += " " + c.args[0] // a mode
		}
		t.Run(label, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, c.name), c.args...)
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", c.name, c.args, err, stdout.String(), stderr.String())
			}
			if stdout.Len() == 0 {
				t.Fatalf("%s %v produced no output", c.name, c.args)
			}
		})
	}

	// Neither a mode nor a section, or an unknown mode: one usage that
	// lists both, on stderr, and exit 2.
	t.Run("experiments usage", func(t *testing.T) {
		for _, args := range [][]string{nil, {"bogus"}} {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, "experiments"), args...)
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); err == nil || code != 2 || stdout.Len() != 0 {
				t.Fatalf("experiments %v: exit %d (%v), stdout %q; want exit 2 and no stdout", args, code, err, stdout.String())
			}
			for _, want := range []string{"experiments topo", "experiments routes", "experiments point", "section flags:", "-table1", "-fig5b"} {
				if !strings.Contains(stderr.String(), want) {
					t.Fatalf("experiments %v usage lacks %q:\n%s", args, want, stderr.String())
				}
			}
		}
	})

	// -progress reports cell completion and nothing else: figures in
	// one process share cells, not a table cache, so there are no cache
	// statistics to print.
	t.Run("experiments -progress", func(t *testing.T) {
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, "experiments"), "-fig2a", "-fig5a", "-seeds", "2", "-progress")
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("experiments -progress: %v\n%s", err, stderr.String())
		}
		// Fig. 2a's cells are Fig. 5a's: one grid counts 144, and no
		// 80-cell count shows Fig. 2a scored on its own.
		if got := stderr.String(); !strings.Contains(got, "144/144 cells") || strings.Contains(got, "80/80 cells") || strings.Contains(got, "routing-table cache:") {
			t.Fatalf("-progress stderr wants one 144-cell counter and no cache line, got:\n%s", got)
		}
	})

	// The daemon's lifecycle as an operator drives it, one served
	// fabricd per row: submit a job, fail a top-level link, resolve
	// across it, skew the traffic and re-optimize, heal. The first row is
	// the documented walk-through, d-mod-k on XGFT(2;16,16;1,16) losing
	// link (1,0,15), and is held to its anchors.
	for _, c := range []struct {
		args            []string
		leaves, m1, top int // topology shape: leaves, leaves per switch, top-level ports
		anchored        bool
	}{
		{nil, 256, 16, 16, true},
		{[]string{"-xgft", "2;8,8;1,4", "-sched", "telemetry"}, 64, 8, 4, false},
		{[]string{"-xgft", "2;8,8;1,4", "-evaluator", "venus"}, 64, 8, 4, false},
	} {
		c := c
		t.Run("fabricd", func(t *testing.T) {
			httpAddr, _ := startFabricd(t, bin, c.args...)
			call := func(method, path string, want int) map[string]any {
				t.Helper()
				req, err := http.NewRequest(method, "http://"+httpAddr+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("%s %s: %v", method, path, err)
				}
				defer resp.Body.Close()
				var body map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != want {
					t.Fatalf("%s %s: status %d (want %d), body %v, decode error %v", method, path, resp.StatusCode, want, body, err)
				}
				return body
			}
			num := func(body map[string]any, key string) int {
				t.Helper()
				v, ok := body[key].(float64)
				if !ok {
					t.Fatalf("no numeric %q in %v", key, body)
				}
				return int(v)
			}
			initial := call("GET", "/stats", http.StatusOK)
			if job, _ := call("POST", fmt.Sprintf("/jobs?app=perm&n=%d", c.m1), http.StatusOK)["job"].(map[string]any); num(job, "n") != c.m1 {
				t.Fatalf("submitted job %v", job)
			}
			fault := call("POST", fmt.Sprintf("/fail-link?level=1&index=0&port=%d", c.top-1), http.StatusOK)
			if num(fault, "failed_wires") != 1 || num(fault, "patched") == 0 || num(fault, "certified_routes") != num(fault, "patched") {
				t.Fatalf("fail-link: %v", fault)
			}
			route := call("GET", fmt.Sprintf("/resolve?src=0&dst=%d", c.leaves-1), http.StatusOK)
			if up, _ := route["up"].([]any); num(route, "generation") != num(fault, "seq") || len(up) != 2 || up[1] == float64(c.top-1) {
				t.Fatalf("resolve across the failed link: %v", route)
			}
			call("GET", "/resolve?src=-1&dst=3", http.StatusBadRequest)
			// Every leaf of switch 0 sends into one residue class mod the
			// top-level port count: the funnel d-mod-k serves worst.
			for s := 0; s < c.m1-1; s++ {
				call("GET", fmt.Sprintf("/resolve?src=%d&dst=%d", s, c.m1+c.top*s), http.StatusOK)
			}
			opt := call("POST", "/optimize?threshold=0", http.StatusOK)
			if cands, _ := opt["candidates"].([]any); len(cands) != 4 || opt["swapped"] != true || opt["best"] == "d-mod-k" {
				t.Fatalf("optimize over the funnel: %v", opt)
			}
			heal := call("POST", "/heal", http.StatusOK)
			if heal["cache_hit"] != true || heal["algo"] != "d-mod-k" || num(heal, "failed_wires") != 0 || num(heal, "certified_routes") != 0 {
				t.Fatalf("heal: %v", heal)
			}
			if c.anchored && (num(initial, "certified_routes") != 65280 || num(fault, "patched") != 480 ||
				num(fault, "unreachable") != 0 || num(fault, "certified_routes") != 480) {
				t.Fatalf("walk-through anchors moved: initial %v, fail-link %v", initial, fault)
			}
		})
	}

	// Wire-protocol round trip: fabricd serving the binary resolve
	// protocol on an ephemeral port, driven by resolveload — the two
	// halves of the wire-speed serving story exercised as real
	// subprocesses, exactly as an operator runs them.
	t.Run("fabricd+resolveload", func(t *testing.T) {
		_, binAddr := startFabricd(t, bin, "-xgft", "2;8,8;1,4", "-listen-binary", "127.0.0.1:0")

		var out, errs bytes.Buffer
		load := exec.Command(filepath.Join(bin, "resolveload"),
			"-addr", binAddr, "-xgft", "2;8,8;1,4", "-conns", "2", "-batch", "512", "-batches", "50")
		load.Stdout = &out
		load.Stderr = &errs
		if err := load.Run(); err != nil {
			t.Fatalf("resolveload: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errs.String())
		}
		// 2 conns x 50 batches x 512 pairs, every pair in range on a
		// healthy fabric: all must resolve.
		if !strings.Contains(out.String(), "resolved 51200/51200 pairs in 100 batches") {
			t.Fatalf("resolveload did not resolve every pair:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "resolves/s") || !strings.Contains(out.String(), "batch RTT p50") {
			t.Fatalf("resolveload did not report rate and latency:\n%s", out.String())
		}
	})

	// Traced wire round trip: fabricd with head sampling on and a
	// blackbox spool, driven by resolveload -trace. The client must
	// report the server-side RTT split, the server's /trace must show
	// the request spans, and a forced blackbox dump must parse.
	t.Run("fabricd+resolveload traced", func(t *testing.T) {
		spool := t.TempDir()
		httpAddr, binAddr := startFabricd(t, bin, "-xgft", "2;8,8;1,4", "-listen-binary", "127.0.0.1:0",
			"-trace-sample", "1/1", "-blackbox-dir", spool)

		var out, errs bytes.Buffer
		load := exec.Command(filepath.Join(bin, "resolveload"),
			"-addr", binAddr, "-xgft", "2;8,8;1,4", "-conns", "2", "-batch", "256", "-batches", "20", "-trace")
		load.Stdout = &out
		load.Stderr = &errs
		if err := load.Run(); err != nil {
			t.Fatalf("resolveload -trace: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errs.String())
		}
		if !strings.Contains(out.String(), "resolved 10240/10240 pairs in 40 batches") {
			t.Fatalf("traced resolveload did not resolve every pair:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "server split (avg/batch):") {
			t.Fatalf("traced resolveload did not report the server RTT split:\n%s", out.String())
		}

		get := func(path string) []byte {
			resp, err := http.Get("http://" + httpAddr + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("GET %s: reading body: %v", path, err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
			}
			return body
		}
		var tview struct {
			Sample string `json:"sample"`
			Count  uint64 `json:"count"`
			Spans  []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(get("/trace?n=64"), &tview); err != nil {
			t.Fatalf("/trace does not parse: %v", err)
		}
		if tview.Sample != "1/1" || tview.Count == 0 || len(tview.Spans) == 0 {
			t.Fatalf("/trace after traced load: %+v", tview)
		}
		seen := map[string]bool{}
		for _, s := range tview.Spans {
			seen[s.Name] = true
		}
		if !seen["wire.request"] || !seen["wire.resolve"] {
			t.Fatalf("/trace lacks the wire request spans, saw %v", seen)
		}

		resp, err := http.Post("http://"+httpAddr+"/blackbox", "application/json", nil)
		if err != nil {
			t.Fatalf("POST /blackbox: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /blackbox: status %d\n%s", resp.StatusCode, body)
		}
		var dump struct {
			Bundle string `json:"bundle"`
		}
		if err := json.Unmarshal(body, &dump); err != nil || dump.Bundle == "" {
			t.Fatalf("POST /blackbox reply does not name a bundle: %v\n%s", err, body)
		}
		var bundle map[string]json.RawMessage
		raw, err := os.ReadFile(dump.Bundle)
		if err != nil {
			t.Fatalf("reading bundle: %v", err)
		}
		if err := json.Unmarshal(raw, &bundle); err != nil {
			t.Fatalf("bundle %s is not valid JSON: %v", dump.Bundle, err)
		}
		for _, key := range []string{"reason", "spans", "events"} {
			if _, ok := bundle[key]; !ok {
				t.Fatalf("bundle lacks %q: %s", key, raw)
			}
		}
	})

	// Observability round trip: fabricd serving HTTP on an ephemeral
	// port, scraped by curl-equivalent GETs and rendered once by
	// fabrictop — the operator's introspection loop as real
	// subprocesses.
	t.Run("fabricd+fabrictop", func(t *testing.T) {
		httpAddr, _ := startFabricd(t, bin, "-xgft", "2;8,8;1,4")

		get := func(path string) string {
			resp, err := http.Get("http://" + httpAddr + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("GET %s: reading body: %v", path, err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
			}
			return string(body)
		}
		if body := get("/healthz"); !strings.Contains(body, `"status":"ok"`) {
			t.Fatalf("/healthz not ready:\n%s", body)
		}
		if body := get("/metrics"); !strings.Contains(body, "fabric_resolves_total") ||
			!strings.Contains(body, "sched_jobs") {
			t.Fatalf("/metrics lacks the fabric and sched instruments:\n%s", body)
		}
		if body := get("/events"); !strings.Contains(body, `"generation.swap"`) {
			t.Fatalf("/events lacks the initial swap:\n%s", body)
		}

		var out, errs bytes.Buffer
		top := exec.Command(filepath.Join(bin, "fabrictop"), "-addr", httpAddr, "-once")
		top.Stdout = &out
		top.Stderr = &errs
		if err := top.Run(); err != nil {
			t.Fatalf("fabrictop: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errs.String())
		}
		for _, want := range []string{"fabric", "sched", "generation.swap"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("fabrictop frame lacks %q:\n%s", want, out.String())
			}
		}
	})

	// Static-analysis smoke: repolint over the real module must be
	// clean (the CI job depends on this), a seeded-violation fixture
	// must fail, and -json must emit machine-readable findings.
	t.Run("repolint", func(t *testing.T) {
		lint := filepath.Join(bin, "repolint")

		out, err := exec.Command(lint, "./...").CombinedOutput()
		if err != nil {
			t.Fatalf("repolint ./... found violations in the tree: %v\n%s", err, out)
		}

		if out, err := exec.Command(lint, "-list").Output(); err != nil {
			t.Fatalf("repolint -list: %v", err)
		} else {
			for _, name := range []string{"nondeterminism", "hotpath", "locks", "obskeys", "banned"} {
				if !strings.Contains(string(out), name) {
					t.Fatalf("repolint -list lacks analyzer %q:\n%s", name, out)
				}
			}
		}

		fixture := filepath.Join("internal", "lint", "testdata", "src", "fixture", "bannedfix") + "/..."
		var stdout, stderr bytes.Buffer
		bad := exec.Command(lint, fixture)
		bad.Stdout = &stdout
		bad.Stderr = &stderr
		if err := bad.Run(); err == nil {
			t.Fatalf("repolint exited 0 on the bannedfix fixture:\n%s", stdout.String())
		}
		if !strings.Contains(stdout.String(), "[banned]") {
			t.Fatalf("repolint fixture findings lack [banned]:\n%s", stdout.String())
		}

		stdout.Reset()
		js := exec.Command(lint, "-json", fixture)
		js.Stdout = &stdout
		js.Stderr = &bytes.Buffer{}
		if err := js.Run(); err == nil {
			t.Fatal("repolint -json exited 0 on the bannedfix fixture")
		}
		var findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
			t.Fatalf("repolint -json output does not parse: %v\n%s", err, stdout.String())
		}
		if len(findings) != 3 {
			t.Fatalf("repolint -json reported %d findings on bannedfix, want 3:\n%s", len(findings), stdout.String())
		}
		for _, f := range findings {
			if f.Analyzer != "banned" || f.File == "" || f.Line == 0 || f.Message == "" {
				t.Fatalf("malformed -json finding: %+v", f)
			}
		}
	})

	// Parallelism-invariance ride-alongs: each sweep's table must be
	// byte-identical between -parallel=1 and -parallel=8 (only the
	// wall-clock footer may differ). The fidelity sweep is the hard
	// acceptance bar for the evaluation layer's determinism.
	runSweep := func(par string, args ...string) string {
		out, err := exec.Command(filepath.Join(bin, "experiments"),
			append(args, "-parallel", par)...).Output()
		if err != nil {
			t.Fatalf("experiments %v -parallel=%s: %v", args, par, err)
		}
		var kept []string
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "[") {
				continue // "[0.42s]" timing footer
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	for _, args := range [][]string{
		{"-placement", "-seeds", "2"},
		{"-shift", "-seeds", "2"},
		{"-churn", "-seeds", "2"},
		{"-fidelity", "-bytes", "2048"},
		{"-adaptive", "-bytes", "2048"},
	} {
		if a, b := runSweep("1", args...), runSweep("8", args...); a != b {
			t.Fatalf("%v differs across -parallel:\n%s\nvs\n%s", args, a, b)
		}
	}

	// The grid sections share one batch of cells: declared together
	// they print, at any -parallel, what each prints alone.
	gridArgs := []string{"-fig2a", "-fig5a", "-fig4b", "-ablation", "-ext", "-faults", "-fidelity", "-adaptive", "-seeds", "2", "-bytes", "2048"}
	together := runSweep("1", gridArgs...)
	if par := runSweep("8", gridArgs...); par != together {
		t.Fatalf("grid sections differ across -parallel:\n%s\nvs\n%s", together, par)
	}
	var alone string
	for _, section := range []string{"-fig2a", "-fig4b", "-fig5a", "-ext", "-faults", "-fidelity", "-ablation", "-adaptive"} { // print order
		alone += runSweep("1", section, "-seeds", "2", "-bytes", "2048")
	}
	if alone != together {
		t.Fatalf("grid sections run together differ from each run alone:\n%s\nvs\n%s", together, alone)
	}

	// Fig. 5b after Fig. 2b prints what Fig. 5b alone prints.
	if both, alone := runSweep("2", "-fig2b", "-fig5b", "-seeds", "2"), runSweep("2", "-fig5b", "-seeds", "2"); !strings.HasSuffix(both, alone) {
		t.Fatalf("-fig5b after -fig2b differs from -fig5b alone:\n%s\nvs\n%s", both, alone)
	}

	// Determinism ride-along for the keyed CLI randomness: the same
	// -seed prints the same permutation table twice.
	run := func() string {
		out, err := exec.Command(filepath.Join(bin, "experiments"), "routes",
			"-xgft", "2;8,8;1,8", "-pattern", "permutation", "-seed", "9", "-routes").Output()
		if err != nil {
			t.Fatalf("experiments routes: %v", err)
		}
		return string(out)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("experiments routes -pattern permutation not deterministic per seed:\n%s\nvs\n%s", a, b)
	}
}

// startFabricd starts a served fabricd on ephemeral loopback ports,
// killed when the test ends, and returns the addresses it announced on
// stdout: "binary resolve protocol on <addr>" (only with
// -listen-binary, and printed first), then "serving <topo> under <algo>
// on <addr> (scheduler policy <p>)" once the HTTP listener is bound.
func startFabricd(t *testing.T, bin string, args ...string) (httpAddr, binAddr string) {
	t.Helper()
	daemon := exec.Command(filepath.Join(bin, "fabricd"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	daemon.Stderr = &stderr
	if err := daemon.Start(); err != nil {
		t.Fatalf("starting fabricd: %v", err)
	}
	t.Cleanup(func() {
		daemon.Process.Kill()
		daemon.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "fabricd: binary resolve protocol on "); ok {
			binAddr = rest
			continue
		}
		if strings.HasPrefix(line, "fabricd: serving ") {
			if i, j := strings.LastIndex(line, " on "), strings.LastIndex(line, " (scheduler"); i >= 0 && j > i {
				httpAddr = line[i+len(" on ") : j]
			}
			break
		}
	}
	if httpAddr == "" {
		t.Fatalf("fabricd %v never announced the http listener (scan error %v)\nstderr:\n%s", args, sc.Err(), stderr.String())
	}
	return httpAddr, binAddr
}
