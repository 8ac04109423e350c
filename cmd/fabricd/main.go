// Command fabricd runs the fabric-manager daemon: it compiles a
// routing scheme into an all-pairs route store and serves resolution
// and fault-handling over HTTP, hot-swapping route generations as
// links and switches fail (see internal/fabric). With telemetry on
// (the default) every resolve feeds per-pair flow counters, and the
// optimizer — on demand via POST /optimize or periodically via
// -reoptimize — re-fits the routing table to the observed traffic.
//
// Usage:
//
//	fabricd -xgft "2;16,16;1,16" -algo d-mod-k -addr :7420
//	fabricd -xgft "2;16,16;1,16" -listen-binary :7421
//	fabricd -xgft "2;16,16;1,16" -algo r-NCA-u -seed 7 -addr :7420
//	fabricd -xgft "2;16,16;1,10" -reoptimize 30s -threshold 0.05
//	fabricd -xgft "2;16,16;1,10" -sched balanced
//	fabricd -xgft "2;8,8;1,8" -evaluator venus
//
// The -evaluator flag selects the scoring backend (internal/evaluate:
// analytic, grouped or venus) the optimizer and the telemetry
// placement policy judge routing quality with; backends are wrapped
// in a memoizing CachedEvaluator, so repeated passes over a stable
// observed pattern are free.
//
// The daemon also runs the multi-tenant job scheduler
// (internal/sched): it owns the leaf pool, places submitted jobs with
// the -sched policy (linear, random, balanced or telemetry), and
// after every submission or release runs a threshold-gated optimizer
// pass over the combined tenant pattern, so the routing table follows
// the tenant mix.
//
// Endpoints:
//
//	GET  /resolve?src=S&dst=D      installed route for the pair
//	GET  /stats                    current generation statistics
//	GET  /telemetry                observed traffic (counters, top flows)
//	POST /optimize                 one re-optimization pass (?threshold=&reset=)
//	POST /jobs?n=N&app=A           submit a job (app: perm, uniform, alltoall, wrf, cg;
//	                               also &name=&bytes=&seed=)
//	GET  /jobs                     scheduler snapshot (jobs, free pool, fragmentation)
//	DELETE /jobs/{id}              release a job
//	POST /fail-link?level=L&index=I&port=P
//	POST /fail-switch?level=L&index=I
//	POST /heal                     recompile the healthy table
//	GET  /healthz                  liveness + readiness (generation age,
//	                               last optimize outcome, wire listener; 503
//	                               until a generation is published)
//	GET  /metrics                  Prometheus text exposition (internal/obs)
//	GET  /events?n=&since=         control-plane event journal tail
//	GET  /wire                     binary-listener per-connection stats
//
// With -pprof the net/http/pprof handlers are additionally served
// under /debug/pprof/ on the HTTP listener.
//
// Logging is structured (log/slog) on stderr; -log-format selects
// text (default) or json. Every journal event (generation swaps,
// faults, optimize decisions, job lifecycle) is also streamed to the
// logger, so a daemon's stderr is a complete control-plane history
// even after the in-memory ring wraps. The two stdout announcement
// lines ("binary resolve protocol on ...", "serving ... on ...") are
// plain prints — scripted clients parse them.
//
// One input rule covers every request value, and one reader applies
// it (request.go): a missing, malformed or out-of-range value is
// refused with 400 and a structured error body naming the first bad
// parameter, and a refused request changes nothing. src, dst, level,
// index, port and n are bounded by the topology; threshold must be a
// finite non-negative float (NaN and Inf are refused, and fabricd
// exits 2 at startup on such a -threshold); bytes is at most
// MaxInt64/N² on an N-leaf tree, so the byte sums a tenant mix feeds
// into telemetry and link loads fit int64; name and app are at most
// 256 bytes. A job that does not fit the free pool is 409, and one whose
// tenant mix is over evaluate.MaxVenusSegments under -evaluator venus
// is 422, placed under no -sched policy.
//
// -listen-binary additionally serves the wire-speed binary resolve
// protocol (internal/wire: length-prefixed frames, batched pairs in,
// packed routes + generation out, zero allocations per batch) on a
// second TCP port — the front door for resolvers that need the
// fabric's in-process rate rather than HTTP's. Drive it with
// cmd/resolveload or wire.Client.
//
// To walk the whole lifecycle — resolve, fail a link, heal, skew the
// traffic and let the optimizer re-fit the table, submit jobs — drive
// the endpoints above with curl, or run examples/subnetmgr in process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xgft"
)

func main() {
	var (
		spec       = flag.String("xgft", "2;16,16;1,16", `topology as "h;m1,..;w1,.."`)
		algo       = flag.String("algo", "d-mod-k", "routing scheme: "+strings.Join(core.AlgorithmNames(), ", "))
		seed       = flag.Uint64("seed", 1, "seed for randomized schemes")
		addr       = flag.String("addr", ":7420", "HTTP listen address")
		telemetry  = flag.Bool("telemetry", true, "count per-pair flows on the resolve path")
		reopt      = flag.Duration("reoptimize", 0, "periodic re-optimization interval (0 = only on POST /optimize)")
		threshold  = flag.Float64("threshold", 0.05, "minimum relative slowdown improvement required to swap tables")
		policy     = flag.String("sched", "linear", "job placement policy: "+strings.Join(sched.PolicyNames(), ", "))
		backend    = flag.String("evaluator", "analytic", "routing-quality scoring backend: "+strings.Join(evaluate.Names(), ", "))
		binAddr    = flag.String("listen-binary", "", "TCP listen address for the binary resolve protocol (internal/wire); empty disables it")
		logFormat  = flag.String("log-format", "text", "structured log format: text or json")
		journalCap = flag.Int("journal", 1024, "control-plane event journal capacity (ring entries)")
		pprofOn    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the HTTP listener")
		sample     = flag.String("trace-sample", "0/1", `head-sampling rate for request traces as "num/den" (0/1 = off, 1/1 = all)`)
		budget     = flag.Duration("span-budget", 0, "per-span latency budget; a span lasting longer triggers a blackbox dump (0 = off)")
		bbDir      = flag.String("blackbox-dir", "", "spool directory for anomaly blackbox bundles; empty disables dumping")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "fabricd: bad -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(2)
	}

	num, den, err := trace.ParseRate(*sample)
	if err != nil {
		fatal("bad -trace-sample", err)
	}
	if err := fabric.CheckThreshold(*threshold); err != nil {
		fatal("bad -threshold", err)
	}
	d, err := build(options{
		spec: *spec, algo: *algo, policy: *policy, evaluator: *backend,
		seed: *seed, telemetry: *telemetry, journalCap: *journalCap,
		sampleNum: num, sampleDen: den, spanBudget: *budget, blackboxDir: *bbDir,
	}, logger)
	if err != nil {
		fatal("startup failed", err)
	}
	if *reopt > 0 {
		if !*telemetry {
			fatal("flag conflict", fmt.Errorf("-reoptimize needs -telemetry"))
		}
		go d.reoptimizeLoop(*reopt, *threshold)
	}
	// Bind before announcing so the printed addresses are the real
	// (possibly :0-assigned) ones — the CLI smoke test and scripted
	// clients parse them.
	httpL, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("http listen failed", err)
	}
	if *binAddr != "" {
		binL, err := net.Listen("tcp", *binAddr)
		if err != nil {
			fatal("binary listen failed", err)
		}
		srv := &wire.Server{Resolver: d.f, Metrics: d.reg, Tracer: d.tracer}
		d.wsrv = srv
		d.wireAddr = binL.Addr().String()
		fmt.Printf("fabricd: binary resolve protocol on %s\n", binL.Addr())
		go func() {
			if err := srv.Serve(binL); err != nil {
				fatal("binary listener failed", err)
			}
		}()
	}
	fmt.Printf("fabricd: serving %s under %s on %s (scheduler policy %s)\n", d.f.Topology(), *algo, httpL.Addr(), d.s.Policy())
	logger.Info("fabricd serving",
		"topology", d.f.Topology().String(), "algo", *algo,
		"addr", httpL.Addr().String(), "policy", d.s.Policy(),
		"evaluator", d.f.Evaluator().Name(), "pprof", *pprofOn)
	if err := http.Serve(httpL, newMux(d, *threshold, *pprofOn)); err != nil {
		fatal("http server failed", err)
	}
}

// optimizeOutcome is the last optimize pass's result as /healthz
// reports it.
type optimizeOutcome struct {
	Time     time.Time `json:"time"`
	Swapped  bool      `json:"swapped"`
	Best     string    `json:"best,omitempty"`
	Current  float64   `json:"current_slowdown,omitempty"`
	BestSlow float64   `json:"best_slowdown,omitempty"`
	Err      string    `json:"error,omitempty"`
}

// daemon bundles the serving pieces: the fabric, the scheduler that
// owns its pool, and the observability spine (metrics registry plus
// event journal) every layer records into.
type daemon struct {
	f        *fabric.Fabric
	s        *sched.Scheduler
	reg      *obs.Registry
	jnl      *obs.Journal
	tracer   *trace.Tracer
	bb       *trace.Blackbox // Dir == "" means dumping is disabled
	wsrv     *wire.Server    // nil when -listen-binary is off
	wireAddr string
	started  time.Time
	lastOpt  atomic.Pointer[optimizeOutcome]
}

// recordOptimize stamps the pass outcome /healthz reports.
func (d *daemon) recordOptimize(res fabric.OptimizeResult, err error) {
	out := &optimizeOutcome{Time: time.Now()}
	if err != nil {
		out.Err = err.Error()
	} else {
		out.Swapped = res.Swapped
		out.Best = res.Best
		out.Current = res.Current
		out.BestSlow = res.BestSlowdown
	}
	d.lastOpt.Store(out)
}

// options collects build's knobs: the topology and scheme, the
// serving policies, and the tracing configuration.
type options struct {
	spec, algo, policy, evaluator string
	seed                          uint64
	telemetry                     bool
	journalCap                    int
	sampleNum, sampleDen          uint64 // head-sampling rate; den 0 means 1
	spanBudget                    time.Duration
	blackboxDir                   string // "" disables anomaly dumps
}

// The daemon's Colored memo (the table cache's MemoAlgorithm half), read
// at scrape time. Coalesced calls count as neither hits nor misses. The
// ratio is what justifies keeping it. The table half is not exported:
// the fabric packs its tables itself and every daemon score is
// ScoreRoutes, so nothing the daemon does reaches it.
const (
	metricMemoHits   = "core_algo_memo_hits_total"
	metricMemoMisses = "core_algo_memo_misses_total"
)

func build(o options, logger *slog.Logger) (*daemon, error) {
	tp, err := xgft.Parse(o.spec)
	if err != nil {
		return nil, err
	}
	algo, err := core.NewByName(o.algo, tp, o.seed, nil)
	if err != nil {
		return nil, err
	}
	policy, err := sched.PolicyByName(o.policy)
	if err != nil {
		return nil, err
	}
	// The optimizer's Colored constructions and the evaluator share one
	// table cache; the chosen backend is wrapped in a
	// memoizing CachedEvaluator so re-optimization rounds over a
	// stable observed pattern never re-score. All three memos are
	// internal/memo caches, so concurrent identical requests coalesce.
	// Every layer shares one metrics registry, one event journal and
	// one tracer.
	reg := obs.NewRegistry()
	jnl := obs.NewJournal(o.journalCap, logger)
	cache := core.NewTableCache(16)
	backend, err := evaluate.New(o.evaluator, evaluate.Options{Cache: cache})
	if err != nil {
		return nil, err
	}
	cached := evaluate.NewCached(backend, 256)
	cached.Instrument(reg)
	reg.CounterFunc(metricMemoHits, "Colored constructions served from the algorithm memo", func() uint64 { h, _ := cache.MemoStats(); return h })
	reg.CounterFunc(metricMemoMisses, "Colored constructions the algorithm memo had to run", func() uint64 { _, m := cache.MemoStats(); return m })
	den := o.sampleDen
	if den == 0 {
		den = 1
	}
	// The blackbox is declared before the tracer so the anomaly hook
	// can capture it; its sources are attached right after. With no
	// spool directory the hook stays quiet (anomalies still count).
	bb := &trace.Blackbox{Dir: o.blackboxDir}
	cfg := trace.Config{
		SampleNum: o.sampleNum, SampleDen: den,
		Budget: o.spanBudget, Metrics: reg,
	}
	if o.blackboxDir != "" {
		cfg.OnAnomaly = func(a trace.Anomaly) {
			if _, err := bb.Dump(a.Reason); err != nil && logger != nil {
				logger.Error("blackbox dump failed", "reason", a.Reason, "error", err)
			}
		}
	}
	tr := trace.New(cfg)
	bb.Tracer, bb.Journal, bb.Metrics = tr, jnl, reg
	cached.Trace(tr)
	f, err := fabric.New(fabric.Config{
		Topo:      tp,
		Algo:      algo,
		Cache:     cache,
		Telemetry: o.telemetry,
		Evaluator: cached,
		Metrics:   reg,
		Journal:   jnl,
		Tracer:    tr,
	})
	if err != nil {
		return nil, err
	}
	s, err := sched.New(sched.Config{Fabric: f, Policy: policy, Seed: o.seed, Metrics: reg, Journal: jnl, Tracer: tr})
	if err != nil {
		return nil, err
	}
	return &daemon{f: f, s: s, reg: reg, jnl: jnl, tracer: tr, bb: bb, started: time.Now()}, nil
}

// jobSpec builds a submission from the job endpoint's parameters: a
// size plus one of the canned application profiles.
func jobSpec(name, app string, n int, bytes int64, seed uint64) (sched.JobSpec, error) {
	var phases []*pattern.Pattern
	switch app {
	case "", "perm", "permutation":
		phases = []*pattern.Pattern{pattern.KeyedRandomPermutation(n, bytes, hashutil.Mix(0x10b5, seed))}
	case "uniform":
		phases = []*pattern.Pattern{pattern.UniformRandom(n, 1, bytes, hashutil.Mix(0x10b6, seed))}
	case "alltoall":
		phases = []*pattern.Pattern{pattern.AllToAll(n, bytes)}
	case "wrf":
		if n < 32 || n%16 != 0 {
			return sched.JobSpec{}, fmt.Errorf("wrf needs a size that is a multiple of 16 and >= 32, got %d", n)
		}
		phases = []*pattern.Pattern{pattern.WRF(n/16, 16, bytes)}
	case "cg":
		cg, err := pattern.CGPhases(n, bytes)
		if err != nil {
			return sched.JobSpec{}, err
		}
		phases = cg
	default:
		return sched.JobSpec{}, fmt.Errorf("unknown app %q (want perm, uniform, alltoall, wrf or cg)", app)
	}
	if name == "" {
		if app == "" {
			app = "perm"
		}
		name = fmt.Sprintf("%s-%d", app, n)
	}
	return sched.JobSpec{Name: name, N: n, Phases: phases}, nil
}

// reoptimizeLoop periodically re-fits the table to the traffic
// observed since the previous pass, logging installed swaps.
func (d *daemon) reoptimizeLoop(every time.Duration, threshold float64) {
	logger := d.jnl.Logger()
	cfg := fabric.OptimizeConfig{Threshold: threshold, Reset: true}
	for range time.Tick(every) {
		res, err := d.f.Optimize(cfg)
		d.recordOptimize(res, err)
		switch {
		case err != nil:
			logger.Error("reoptimize failed", "error", err)
		case res.Swapped:
			logger.Info("reoptimized",
				"best", res.Best, "current_slowdown", res.Current,
				"best_slowdown", res.BestSlowdown, "pairs", res.Pairs,
				"generation", res.Stats.Seq)
		}
	}
}

// statsJSON is the wire form of fabric.Stats (BuildTime in
// milliseconds instead of opaque nanoseconds). certified_routes is how
// many routes the fabric's deadlock gate vouched for in the generation
// (the ones no earlier generation served; a guided base's are checked
// once per guide leaf and NCA level), exception_words how many words
// it holds apart from its rule, the guided base or held rows of the
// pinned table it was derived from.
type statsJSON struct {
	Seq             uint64  `json:"seq"`
	Algo            string  `json:"algo"`
	Routes          int     `json:"routes"`
	Patched         int     `json:"patched"`
	Unreachable     int     `json:"unreachable"`
	FailedWires     int     `json:"failed_wires"`
	FailedSwitches  int     `json:"failed_switches"`
	CacheHit        bool    `json:"cache_hit"`
	CertifiedRoutes int     `json:"certified_routes"`
	ExceptionWords  int     `json:"exception_words"`
	BuildMillis     float64 `json:"build_ms"`
}

func toJSON(st fabric.Stats) statsJSON {
	return statsJSON{
		Seq:             st.Seq,
		Algo:            st.Algo,
		Routes:          st.Routes,
		Patched:         st.Patched,
		Unreachable:     st.Unreachable,
		FailedWires:     st.FailedWires,
		FailedSwitches:  st.FailedSwitches,
		CacheHit:        st.CacheHit,
		CertifiedRoutes: st.CertifiedRoutes,
		ExceptionWords:  st.ExceptionWords,
		BuildMillis:     float64(st.BuildTime.Microseconds()) / 1000,
	}
}

// optimizeJSON is the wire form of fabric.OptimizeResult.
type optimizeJSON struct {
	Pairs      int             `json:"pairs"`
	Resolves   int64           `json:"resolves"`
	Current    float64         `json:"current_slowdown"`
	Candidates []candidateJSON `json:"candidates"`
	Best       string          `json:"best"`
	BestSlow   float64         `json:"best_slowdown"`
	Swapped    bool            `json:"swapped"`
	Stats      statsJSON       `json:"stats"`
}

type candidateJSON struct {
	Algo     string  `json:"algo"`
	Slowdown float64 `json:"slowdown"`
}

func optimizeToJSON(res fabric.OptimizeResult) optimizeJSON {
	out := optimizeJSON{
		Pairs:    res.Pairs,
		Resolves: res.Resolves,
		Current:  res.Current,
		Best:     res.Best,
		BestSlow: res.BestSlowdown,
		Swapped:  res.Swapped,
		Stats:    toJSON(res.Stats),
	}
	for _, c := range res.Candidates {
		out.Candidates = append(out.Candidates, candidateJSON{Algo: c.Algo, Slowdown: c.Slowdown})
	}
	return out
}

type errJSON struct {
	Error string `json:"error"`
}

// jobJSON is the wire form of a placed job.
type jobJSON struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	N      int    `json:"n"`
	Policy string `json:"policy"`
	Leaves []int  `json:"leaves"`
}

func jobToJSON(j *sched.Job) jobJSON {
	return jobJSON{ID: j.ID, Name: j.Name, N: j.N, Policy: j.Policy, Leaves: j.Leaves}
}

// snapshotJSON is the wire form of sched.Snapshot.
type snapshotJSON struct {
	Policy        string    `json:"policy"`
	Leaves        int       `json:"leaves"`
	Free          int       `json:"free"`
	FreeBlocks    int       `json:"free_blocks"`
	LargestFree   int       `json:"largest_free"`
	Fragmentation float64   `json:"fragmentation"`
	Jobs          []jobJSON `json:"jobs"`
}

func snapshotToJSON(snap sched.Snapshot) snapshotJSON {
	out := snapshotJSON{
		Policy:        snap.Policy,
		Leaves:        snap.Leaves,
		Free:          snap.Free,
		FreeBlocks:    snap.FreeBlocks,
		LargestFree:   snap.LargestFree,
		Fragmentation: snap.Fragmentation,
		Jobs:          []jobJSON{},
	}
	for _, j := range snap.Jobs {
		out.Jobs = append(out.Jobs, jobJSON{ID: j.ID, Name: j.Name, N: j.N, Policy: snap.Policy, Leaves: j.Leaves})
	}
	return out
}

// reply answers code with v as the JSON body.
func reply(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// maxJobBytes bounds a job's message size on a tree of n leaves. Jobs
// hold disjoint leaves and all-to-all is the densest app, so a tenant
// mix is at most n(n−1) flows: at n² times the bound, the sums it feeds
// into telemetry, link loads and an optimize pass's resolves stay
// inside int64, with room for resolve counts on top.
func maxJobBytes(n int) int64 { return math.MaxInt64 / int64(n*n) }

func newMux(d *daemon, threshold float64, pprofOn bool) *http.ServeMux {
	f, s := d.f, d.s
	tp := f.Topology()
	mux := http.NewServeMux()
	// reoptimize runs the threshold-gated pass over the combined
	// tenant pattern after a placement change and merges its fields into
	// the response: the pass result, or nil when telemetry is off, or an
	// "optimize_error" when the pass itself failed, which it returns. A
	// pass failure keeps the old routing table serving; it does not undo
	// the placement change.
	reoptimize := func(resp map[string]any) error {
		res, ran, err := s.Reoptimize(threshold)
		resp["optimize"] = nil
		switch {
		case err != nil:
			d.recordOptimize(res, err)
			resp["optimize_error"] = err.Error()
		case ran:
			d.recordOptimize(res, err)
			resp["optimize"] = optimizeToJSON(res)
		}
		return err
	}
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, snapshotToJSON(s.Snapshot()))
	})
	maxBytes := maxJobBytes(tp.Leaves())
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		q := read(r)
		n := q.intIn("n", 1, tp.Leaves())
		bytes, seed := q.positive("bytes", 64*1024, maxBytes), q.unsigned("seed", 1)
		name, app := q.text("name"), q.text("app")
		spec, err := jobSpec(name, app, n, bytes, seed)
		if q.keep(err); q.refused(w) {
			return
		}
		// A tenant mix too large to score is 422, and no job stays placed:
		// the telemetry policy refuses before placing, the others' pass
		// after it, and the job is released (unless a DELETE was first).
		job, err := s.Submit(spec)
		switch {
		case errors.Is(err, sched.ErrNoCapacity):
			reply(w, http.StatusConflict, errJSON{err.Error()})
			return
		case errors.Is(err, evaluate.ErrTooManySegments):
			reply(w, http.StatusUnprocessableEntity, errJSON{err.Error()})
			return
		case err != nil:
			reply(w, http.StatusInternalServerError, errJSON{err.Error()})
			return
		}
		resp := map[string]any{"job": jobToJSON(job)}
		if err := reoptimize(resp); errors.Is(err, evaluate.ErrTooManySegments) {
			_ = s.Release(job.ID)
			reply(w, http.StatusUnprocessableEntity, errJSON{err.Error()})
			return
		}
		reply(w, http.StatusOK, resp)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		q := read(r)
		id := q.id()
		if q.refused(w) {
			return
		}
		if err := s.Release(id); err != nil {
			reply(w, http.StatusNotFound, errJSON{err.Error()})
			return
		}
		resp := map[string]any{"released": id}
		reoptimize(resp)
		resp["scheduler"] = snapshotToJSON(s.Snapshot())
		reply(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness plus readiness: a daemon whose store never
		// published a generation is alive but cannot serve routes.
		gen := f.Generation()
		if gen == nil {
			reply(w, http.StatusServiceUnavailable, map[string]any{
				"status": "unready", "reason": "no generation published",
			})
			return
		}
		st := f.Stats()
		resp := map[string]any{
			"status":            "ok",
			"generation":        st.Seq,
			"algo":              st.Algo,
			"generation_age_ms": float64(time.Since(f.LastSwap()).Microseconds()) / 1000,
			"uptime_ms":         float64(time.Since(d.started).Microseconds()) / 1000,
			"journal_seq":       d.jnl.Seq(),
		}
		resp["last_optimize"] = d.lastOpt.Load() // a nil pointer encodes as null
		if d.wsrv != nil {
			resp["wire_listener"] = map[string]any{
				"addr": d.wireAddr, "conns": len(d.wsrv.ConnStats()),
			}
		} else {
			resp["wire_listener"] = nil
		}
		reply(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		// ?since=S is the incremental cursor: everything after journal
		// sequence S, oldest first. A client that tails with the last
		// seq it saw detects ring overruns by comparing the first
		// returned Seq against since+1. ?n= is the plain tail.
		q := read(r)
		since, n := q.unsigned("since", 0), q.count("n", 32)
		if q.refused(w) {
			return
		}
		seq := d.jnl.Seq()
		var events []obs.Event
		if q.has("since") {
			events = d.jnl.Since(since)
		} else {
			events = d.jnl.Tail(n)
		}
		reply(w, http.StatusOK, map[string]any{"seq": seq, "events": events})
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		q := read(r)
		n := q.count("n", 64)
		if q.refused(w) {
			return
		}
		num, den := d.tracer.SampleRate()
		reply(w, http.StatusOK, map[string]any{
			"sample":    fmt.Sprintf("%d/%d", num, den),
			"count":     d.tracer.SpanCount(),
			"anomalies": d.tracer.Anomalies(),
			"names":     d.tracer.Names(),
			"spans":     d.tracer.Spans(n),
		})
	})
	mux.HandleFunc("GET /blackbox", func(w http.ResponseWriter, r *http.Request) {
		if d.bb.Dir == "" {
			reply(w, http.StatusNotFound, errJSON{"blackbox dumping is disabled (-blackbox-dir)"})
			return
		}
		names, err := d.bb.List()
		if err != nil {
			reply(w, http.StatusInternalServerError, errJSON{err.Error()})
			return
		}
		reply(w, http.StatusOK, map[string]any{"dir": d.bb.Dir, "bundles": names})
	})
	mux.HandleFunc("POST /blackbox", func(w http.ResponseWriter, r *http.Request) {
		// Forced dump: capture the current flight recorder, journal
		// tail and metrics right now, without waiting for an anomaly.
		if d.bb.Dir == "" {
			reply(w, http.StatusConflict, errJSON{"blackbox dumping is disabled (-blackbox-dir)"})
			return
		}
		path, err := d.bb.Dump("forced")
		if err != nil {
			reply(w, http.StatusInternalServerError, errJSON{err.Error()})
			return
		}
		reply(w, http.StatusOK, map[string]any{"bundle": path})
	})
	mux.HandleFunc("GET /wire", func(w http.ResponseWriter, r *http.Request) {
		if d.wsrv == nil {
			reply(w, http.StatusNotFound, errJSON{"binary listener is disabled (-listen-binary)"})
			return
		}
		reply(w, http.StatusOK, map[string]any{
			"addr": d.wireAddr, "conns": d.wsrv.ConnStats(),
		})
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, toJSON(f.Stats()))
	})
	mux.HandleFunc("GET /resolve", func(w http.ResponseWriter, r *http.Request) {
		q := read(r)
		src, dst := q.intIn("src", 0, tp.Leaves()-1), q.intIn("dst", 0, tp.Leaves()-1)
		if q.refused(w) {
			return
		}
		// A debug shim over the packed resolve: a batch of one, counted
		// by the rule and the instruments every other resolve is, its
		// word and generation from one snapshot — a concurrent swap
		// cannot tag a stale route as current.
		var word [1]uint64
		_, generation := f.ResolveBatchPacked([][2]int{{src, dst}}, word[:])
		if word[0] == fabric.PackedUnreachable {
			reply(w, http.StatusNotFound, errJSON{fmt.Sprintf("pair (%d,%d) unreachable", src, dst)})
			return
		}
		reply(w, http.StatusOK, map[string]any{
			"src": src, "dst": dst, "up": fabric.AppendPackedUp(word[0], []int{}),
			"nca_level": fabric.PackedNCALevel(word[0]), "generation": generation,
		})
	})
	mux.HandleFunc("GET /telemetry", func(w http.ResponseWriter, r *http.Request) {
		tel := f.Telemetry()
		if tel == nil {
			reply(w, http.StatusConflict, errJSON{"telemetry is disabled (-telemetry=false)"})
			return
		}
		// One snapshot — one fold, one scan — behind all three fields, so
		// top never names a count the totals have not seen.
		all := tel.TopFlows(-1)
		var resolves uint64
		for _, fc := range all {
			resolves += fc.Count
		}
		flows := make([]map[string]any, 0, 10)
		for _, fc := range all[:min(10, len(all))] {
			flows = append(flows, map[string]any{"src": fc.Src, "dst": fc.Dst, "count": fc.Count})
		}
		reply(w, http.StatusOK, map[string]any{
			"pairs":    len(all),
			"resolves": resolves,
			"top":      flows,
		})
	})
	mux.HandleFunc("POST /optimize", func(w http.ResponseWriter, r *http.Request) {
		q := read(r)
		cfg := fabric.OptimizeConfig{Threshold: q.finite("threshold", threshold), Reset: q.boolean("reset", true)}
		if q.refused(w) {
			return
		}
		if f.Telemetry() == nil {
			reply(w, http.StatusConflict, errJSON{"telemetry is disabled (-telemetry=false)"})
			return
		}
		res, err := f.Optimize(cfg)
		d.recordOptimize(res, err)
		if err != nil {
			// With telemetry on, an Optimize error is a server-side
			// fault (candidate build or verification failure), not a
			// request conflict.
			reply(w, http.StatusInternalServerError, errJSON{err.Error()})
			return
		}
		reply(w, http.StatusOK, optimizeToJSON(res))
	})
	admin := func(op func() (fabric.Stats, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			st, err := op()
			if err != nil {
				reply(w, http.StatusConflict, errJSON{err.Error()})
				return
			}
			reply(w, http.StatusOK, toJSON(st))
		}
	}
	// A refused level reads as its low bound, so index's and port's
	// bounds are always a real level's.
	mux.HandleFunc("POST /fail-link", func(w http.ResponseWriter, r *http.Request) {
		q := read(r)
		level := q.intIn("level", 0, tp.Height()-1)
		index, port := q.intIn("index", 0, tp.NodesAt(level)-1), q.intIn("port", 0, tp.W(level)-1)
		if q.refused(w) {
			return
		}
		admin(func() (fabric.Stats, error) { return f.FailLink(level, index, port) })(w, r)
	})
	mux.HandleFunc("POST /fail-switch", func(w http.ResponseWriter, r *http.Request) {
		q := read(r)
		level := q.intIn("level", 1, tp.Height())
		index := q.intIn("index", 0, tp.NodesAt(level)-1)
		if q.refused(w) {
			return
		}
		admin(func() (fabric.Stats, error) { return f.FailSwitch(level, index) })(w, r)
	})
	mux.HandleFunc("POST /heal", admin(f.Heal))
	return mux
}
