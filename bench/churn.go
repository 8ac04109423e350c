package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/wire"
	"repro/internal/xgft"
)

// optimizeThreshold is the swap threshold every optimize pass of the
// workload runs with (fabricd's own default, passed explicitly).
const optimizeThreshold = 0.05

// maxGenerationProbes bounds how many probe batches may be needed
// before the generation an operation reported is seen serving. The
// daemon publishes before it replies, so one is the expected count.
const maxGenerationProbes = 3

// Wire forms of fabricd's control-plane replies (the fields read).
type statsReply struct {
	Seq uint64 `json:"seq"`
}

type optimizeReply struct {
	Pairs   int        `json:"pairs"`
	Best    string     `json:"best"`
	Swapped bool       `json:"swapped"`
	Stats   statsReply `json:"stats"`
}

type jobReply struct {
	Job struct {
		ID     uint64 `json:"id"`
		Leaves []int  `json:"leaves"`
	} `json:"job"`
	Optimize      *optimizeReply `json:"optimize"`
	OptimizeError string         `json:"optimize_error"`
}

// churnWorkload is churn_mixed: control cycles in closed loop on one
// connection pair (HTTP + binary), an open-loop probe stream on a
// second binary connection.
type churnWorkload struct {
	env   *env
	tp    *xgft.Topology
	d     *Daemon
	ctl   *wire.Client // connection 1: feed and verifying probes
	probe *wire.Client // connection 2: open-loop probe stream
	tally Tally
	acc   *acc

	starts     []float64 // setup_s samples, seconds
	cycle      int       // next cycle index
	ctlGen     uint64    // last generation seen on connection 1
	stale      int
	chain      []string // chain[i] hashes the decisions of cycles 0..i
	decisions  []string
	eventsSeq  uint64
	probeAll   []float64
	selfPairs  [][2]int
	up         []int
	healthy    *xgft.View
	notes      []string
	firstProbe [][2]int // the setup probe, replayed by the in-process replica
}

func newChurnWorkload(e *env) (*churnWorkload, error) {
	tp, err := xgft.Parse(e.sz.churnSpec)
	if err != nil {
		return nil, err
	}
	return &churnWorkload{env: e, tp: tp, acc: newAcc(), selfPairs: selfProbe(tp, e.sz), healthy: xgft.NewView(tp)}, nil
}

func (w *churnWorkload) daemonArgs() []string {
	return []string{"-xgft", w.env.sz.churnSpec, "-algo", w.env.sz.algo, "-sched", "telemetry"}
}

func (w *churnWorkload) closeConns() {
	if w.ctl != nil {
		w.ctl.Close()
		w.ctl = nil
	}
	if w.probe != nil {
		w.probe.Close()
		w.probe = nil
	}
}

// start starts a daemon in place of the running one, timed from exec
// to the first verified probe batch.
func (w *churnWorkload) start(ctx context.Context) error {
	if w.firstProbe == nil {
		c0, err := churnCycle(w.tp, w.env.sz, w.env.seed, 0)
		if err != nil {
			return err
		}
		w.firstProbe = c0.Probe
	}
	w.stop()
	d, err := StartDaemon(w.env.fabricd, filepath.Join(w.env.outDir, ChurnMixed+"-fabricd.log"), w.daemonArgs()...)
	if err != nil {
		return err
	}
	w.d = d
	w.ctlGen = 0
	if err := w.redial(); err != nil {
		return err
	}
	w.tally.Attempt(1)
	if _, err := w.verifiedProbe(w.firstProbe, w.healthy); err != nil {
		w.tally.Fail("setup probe: %v", err)
	}
	w.starts = append(w.starts, time.Since(d.Started).Seconds())
	return nil
}

// redial opens fresh connections to the daemon: it cuts a connection
// that has been idle for its 30 s frame deadline, and other workloads'
// rounds run between this one's.
func (w *churnWorkload) redial() (err error) {
	w.closeConns()
	if w.ctl, err = wire.Dial(w.d.Wire, unitTimeout); err != nil {
		return err
	}
	w.probe, err = wire.Dial(w.d.Wire, unitTimeout)
	return err
}

// verifiedProbe resolves pairs on connection 1 and checks every word:
// it must decode to a well-formed route that really connects the pair
// and rides no wire failed in view. It returns the serving generation.
func (w *churnWorkload) verifiedProbe(pairs [][2]int, view *xgft.View) (uint64, error) {
	gen, packed, err := w.ctl.ResolveBatchPacked(pairs)
	if err != nil {
		return 0, err
	}
	if gen < w.ctlGen {
		w.stale++
		return gen, fmt.Errorf("generation went backwards on the control connection (%d after %d)", gen, w.ctlGen)
	}
	w.ctlGen = gen
	for i, word := range packed {
		if word == fabric.PackedUnreachable {
			return gen, fmt.Errorf("pair (%d,%d) is unreachable in generation %d", pairs[i][0], pairs[i][1], gen)
		}
		w.up = fabric.AppendPackedUp(word, w.up[:0])
		r := xgft.Route{Src: pairs[i][0], Dst: pairs[i][1], Up: w.up}
		if err := r.Validate(w.tp); err != nil {
			return gen, fmt.Errorf("generation %d: %w", gen, err)
		}
		if !r.VerifyConnects(w.tp) {
			return gen, fmt.Errorf("generation %d: route %d->%d up%v does not connect", gen, r.Src, r.Dst, r.Up)
		}
		if !view.RouteOK(r) {
			return gen, fmt.Errorf("generation %d: route %d->%d up%v rides the failed wire", gen, r.Src, r.Dst, r.Up)
		}
	}
	return gen, nil
}

// awaitGeneration probes connection 1 until the batch is answered by
// generation want, verifying every probe under view.
func (w *churnWorkload) awaitGeneration(in cycleInput, want uint64, view *xgft.View) error {
	for try := 0; try < maxGenerationProbes; try++ {
		gen, err := w.verifiedProbe(in.Probe, view)
		if err != nil {
			return err
		}
		if gen == want {
			return nil
		}
		if gen > want {
			return fmt.Errorf("probe answered with generation %d, past the reported %d", gen, want)
		}
	}
	return fmt.Errorf("generation %d never served after %d probes", want, maxGenerationProbes)
}

// controlOp issues one control-plane request and waits for the
// generation it reported to serve; it returns the time from request
// to that probe (time-to-new-generation) and the HTTP round trip.
func (w *churnWorkload) controlOp(in cycleInput, what, method, path string, out any, seq func() (uint64, bool), view *xgft.View) (total, rtt time.Duration, ok bool) {
	w.tally.Attempt(1)
	start := time.Now()
	if _, err := w.d.Call(method, path, out); err != nil {
		w.tally.Fail("cycle %d %s: %v", in.Index, what, err)
		return 0, 0, false
	}
	rtt = time.Since(start)
	want, known := seq()
	if !known {
		w.tally.Fail("cycle %d %s: reply carries no generation", in.Index, what)
		return 0, rtt, false
	}
	if err := w.awaitGeneration(in, want, view); err != nil {
		w.tally.Fail("cycle %d %s: %v", in.Index, what, err)
		return 0, rtt, false
	}
	return time.Since(start), rtt, true
}

// cycleTimes are one cycle's client-observed latencies in ms.
type cycleTimes struct {
	total, optimize, faillink, heal, submit float64
	ok                                      bool
}

// runCycle runs control cycle c against the daemon.
func (w *churnWorkload) runCycle(c int) cycleTimes {
	in, err := churnCycle(w.tp, w.env.sz, w.env.seed, c)
	if err != nil {
		w.tally.Attempt(1)
		w.tally.Fail("cycle %d: %v", c, err)
		return cycleTimes{}
	}
	var t cycleTimes
	t.ok = true
	start := time.Now()
	note := func(d time.Duration, ok bool) float64 {
		t.ok = t.ok && ok
		return ms(d)
	}

	// Feed the cycle's traffic pattern through the binary port.
	w.tally.Attempt(1)
	if _, err := w.verifiedProbe(in.Feed, w.healthy); err != nil {
		w.tally.Fail("cycle %d feed (%s): %v", c, in.Kind, err)
		t.ok = false
	}

	var opt optimizeReply
	d, _, ok := w.controlOp(in, "optimize", http.MethodPost,
		fmt.Sprintf("/optimize?threshold=%g&reset=true", optimizeThreshold), &opt,
		func() (uint64, bool) { return opt.Stats.Seq, true }, w.healthy)
	t.optimize = note(d, ok)

	failed := xgft.NewView(w.tp)
	failed.FailLink(in.Level, in.Switch, in.Port)
	var st statsReply
	d, _, ok = w.controlOp(in, "fail-link", http.MethodPost,
		fmt.Sprintf("/fail-link?level=%d&index=%d&port=%d", in.Level, in.Switch, in.Port), &st,
		func() (uint64, bool) { return st.Seq, true }, failed)
	t.faillink = note(d, ok)

	d, _, ok = w.controlOp(in, "heal", http.MethodPost, "/heal", &st,
		func() (uint64, bool) { return st.Seq, true }, w.healthy)
	t.heal = note(d, ok)

	var sub jobReply
	jobSeq := func(r *jobReply) func() (uint64, bool) {
		return func() (uint64, bool) {
			if r.Optimize == nil {
				return 0, false
			}
			return r.Optimize.Stats.Seq, true
		}
	}
	_, rtt, ok := w.controlOp(in, "submit", http.MethodPost,
		fmt.Sprintf("/jobs?n=%d&app=%s&seed=%d", in.JobN, in.JobApp, in.JobSeed), &sub, jobSeq(&sub), w.healthy)
	t.submit = note(rtt, ok)

	var rel jobReply
	if ok {
		_, _, ok = w.controlOp(in, "release", http.MethodDelete, fmt.Sprintf("/jobs/%d", sub.Job.ID), &rel, jobSeq(&rel), w.healthy)
		note(0, ok)
	}
	t.total = ms(time.Since(start))

	w.decide(decision(c, opt, sub, rel))
	return t
}

// decision renders what a cycle decided: whether each optimize pass
// swapped and to what, and where the job was placed.
func decision(c int, opt optimizeReply, sub, rel jobReply) string {
	pass := func(o *optimizeReply) string {
		if o == nil {
			return "none"
		}
		return fmt.Sprintf("%v:%s", o.Swapped, o.Best)
	}
	return fmt.Sprintf("cycle %d optimize %s submit %v %s release %s",
		c, pass(&opt), sub.Job.Leaves, pass(sub.Optimize), pass(rel.Optimize))
}

// decide extends the decision chain.
func (w *churnWorkload) decide(dec string) {
	w.decisions = append(w.decisions, dec)
	w.chain = append(w.chain, chainHash(w.chain, dec))
}

// chainHash hashes dec onto the end of chain.
func chainHash(chain []string, dec string) string {
	prev := ""
	if len(chain) > 0 {
		prev = chain[len(chain)-1]
	}
	sum := sha256.Sum256([]byte(prev + "\n" + dec))
	return hex.EncodeToString(sum[:8])
}

// round runs control cycles for about d beside the probe stream.
func (w *churnWorkload) round(ctx context.Context, r int, d time.Duration) error {
	if err := w.redial(); err != nil {
		return err
	}
	var sc scrapes
	var err error
	if sc.before, err = w.d.Scrape(); err != nil {
		return err
	}
	cpu0, err := w.d.CPU()
	if err != nil {
		return err
	}

	// Connection 2: open-loop stream of self-pair probe batches.
	due := arrivals(w.env.sz.probeRate, d, keyArrive, w.env.seed, uint64(r), 2)
	var probes OpenLoopResult
	var wg sync.WaitGroup
	var probeGen uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		probes = RunOpenLoop(due, d, func(i int) bool {
			w.tally.Attempt(1)
			gen, packed, err := w.probe.ResolveBatchPacked(w.selfPairs)
			if err != nil {
				w.tally.Fail("probe %d: %v", i, err)
				return false
			}
			if gen < probeGen {
				w.tally.Fail("probe %d: generation went backwards on the probe connection (%d after %d)", i, gen, probeGen)
			}
			probeGen = gen
			for _, word := range packed {
				if word != 0 {
					w.tally.Fail("probe %d: self pair answered %#x, want the empty route", i, word)
					break
				}
			}
			return true
		})
	}()

	// Connection 1: control cycles, closed loop.
	var cycles []float64
	var opt, fail, heal, submit []float64
	start := time.Now()
	for time.Since(start) < d {
		t := w.runCycle(w.cycle)
		w.cycle++
		if !t.ok {
			continue
		}
		cycles = append(cycles, t.total)
		opt = append(opt, t.optimize)
		fail = append(fail, t.faillink)
		heal = append(heal, t.heal)
		submit = append(submit, t.submit)
	}
	length := time.Since(start).Seconds()
	wg.Wait()

	cpu1, err := w.d.CPU()
	if err != nil {
		return err
	}
	if sc.after, err = w.d.Scrape(); err != nil {
		return err
	}
	if len(cycles) == 0 {
		// Every cycle had a failed operation; the tally names them.
		return nil
	}
	n := len(cycles)
	w.acc.round("unit_p50_ms", Median(cycles), n)
	w.acc.round("units_per_s", float64(n)/length, n)
	w.acc.round("cpu_ms_per_unit", (cpu1-cpu0).Seconds()*1e3/float64(n), n)
	w.acc.round("optimize_p50_ms", Median(opt), n)
	w.acc.round("faillink_p50_ms", Median(fail), n)
	w.acc.round("heal_p50_ms", Median(heal), n)
	w.acc.round("submit_p50_ms", Median(submit), n)

	recordLatency(w.acc, probes.Latency, probes.Length, sc, 1)
	w.acc.round("client.gen_lag_p99_us", Percentile(probes.GenLag, 0.99), len(probes.GenLag))
	w.acc.add("client.backlog_end", float64(probes.Backlog))
	w.probeAll = append(w.probeAll, values(probes.Latency)...)
	place, pn := sc.delta("sched_place_ns")
	w.acc.round("daemon.place_us", place, pn)
	return w.scrapeEvents()
}

// scrapeEvents reads the journal entries since the last round and
// records the daemon's own optimize and swap-build durations.
func (w *churnWorkload) scrapeEvents() error {
	events, seq, err := w.d.Events(w.eventsSeq)
	if err != nil {
		return err
	}
	w.eventsSeq = seq
	var opt, swap []float64
	for _, ev := range events {
		switch ev.Type {
		case "optimize":
			opt = append(opt, float64(ev.DurNS)/1e6)
		case "generation.swap":
			swap = append(swap, float64(ev.DurNS)/1e6)
		}
	}
	if len(opt) > 0 {
		w.acc.round("daemon.optimize_ms", Median(opt), len(opt))
	}
	if len(swap) > 0 {
		w.acc.round("daemon.swap_build_ms", Median(swap), len(swap))
	}
	return nil
}

// traced replays the first control cycles in process, span by span,
// and checks that the replica decided what the daemon decided.
func (w *churnWorkload) traced(ctx context.Context, d time.Duration) error {
	return w.layers()
}

func (w *churnWorkload) finish() *WorkloadResult {
	recordPeakRSS(w.acc, &w.tally, w.d)
	w.stop()
	w.acc.put("setup_s", Median(w.starts), len(w.starts))
	w.acc.put("client.rtt_p999_us", Percentile(w.probeAll, 0.999), len(w.probeAll))
	w.acc.put("client.stale_generation_count", float64(w.stale), 0)
	res := finishResult(ChurnMixed, w.acc, &w.tally, w.notes)
	res.DecisionChain = w.chain
	if len(w.chain) > 0 {
		res.DecisionHash = w.chain[len(w.chain)-1]
	}
	return res
}

func (w *churnWorkload) stop() {
	w.closeConns()
	w.d.Stop()
	w.d = nil
}
