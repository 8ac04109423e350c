// Command fabrictop is a live one-screen view of a running fabricd:
// it polls GET /metrics (Prometheus text), GET /events (the
// control-plane journal, tailed incrementally with the ?since=
// cursor) and GET /trace (the tracer's flight recorder) and renders
// the fabric's vitals — the serving generation, resolve counters and
// latency quantiles, wire listener traffic, scheduler pool occupancy,
// evaluator cache effectiveness — plus the most recent control-plane
// events and a span waterfall for the most recent trace.
//
// Usage:
//
//	fabrictop -addr 127.0.0.1:7420
//	fabrictop -addr 127.0.0.1:7420 -interval 1s -events 12 -spans 12
//	fabrictop -addr 127.0.0.1:7420 -once
//	fabrictop -addr 127.0.0.1:7420 -once -json
//
// Events are tailed with the journal sequence cursor: each poll asks
// only for events past the last one seen, and a cursor gap (the ring
// overwrote entries between polls) is flagged on the events header
// as "dropped N".
//
// -once prints a single frame and exits (no screen clearing) — the
// scriptable form the CLI smoke test drives. With -json the frame is
// instead emitted as one deterministic JSON document (top-level and
// nested map keys sorted, arrays in server order) bundling the
// metrics snapshot, the event tail and the span tail — the form to
// archive or diff.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7420", "fabricd HTTP address (host:port or URL)")
		interval = flag.Duration("interval", 2*time.Second, "poll interval")
		events   = flag.Int("events", 8, "journal events to show")
		once     = flag.Bool("once", false, "print one frame and exit")
		spans    = flag.Int("spans", 8, "flight-recorder spans to fetch for the waterfall")
		jsonOut  = flag.Bool("json", false, "with -once: emit the frame as one deterministic JSON document")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-poll HTTP timeout")
	)
	flag.Parse()
	if *jsonOut && !*once {
		fmt.Fprintln(os.Stderr, "fabrictop: -json requires -once")
		os.Exit(2)
	}
	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	p := &poller{
		client: &http.Client{Timeout: *timeout},
		base:   base, nEvents: *events, nSpans: *spans,
	}
	for {
		frame, err := p.poll()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fabrictop:", err)
			os.Exit(2)
		}
		if *jsonOut {
			if err := writeJSON(os.Stdout, frame); err != nil {
				fmt.Fprintln(os.Stderr, "fabrictop:", err)
				os.Exit(2)
			}
			return
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(os.Stdout, *addr, frame, time.Now())
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// frame is one poll's worth of daemon state.
type frame struct {
	metrics map[string]float64
	events  []obs.Event
	dropped uint64 // journal entries lost to ring overwrites since the last poll
	// Trace pane, absent (traced == false) when the daemon predates
	// GET /trace.
	traced    bool
	sample    string
	spanCount uint64
	anomalies uint64
	spans     []trace.SpanRecord
}

// poller tails a daemon across polls: it remembers the last journal
// sequence seen so each /events request fetches only the delta, and
// keeps the rolling display buffer of recent events.
type poller struct {
	client          *http.Client
	base            string
	nEvents, nSpans int
	seq             uint64 // last journal sequence seen; 0 = first poll
	tail            []obs.Event
}

// poll fetches one frame from the daemon.
func (p *poller) poll() (frame, error) {
	var f frame
	resp, err := p.client.Get(p.base + "/metrics")
	if err != nil {
		return f, err
	}
	f.metrics, err = parseMetrics(resp.Body)
	resp.Body.Close()
	if err != nil {
		return f, fmt.Errorf("parsing /metrics: %w", err)
	}
	if err := p.pollEvents(&f); err != nil {
		return f, err
	}
	if err := p.pollTrace(&f); err != nil {
		return f, err
	}
	return f, nil
}

// pollEvents tails the journal incrementally. The first poll takes a
// plain tail; every later one uses the ?since= cursor and flags the
// gap when the ring overwrote entries between polls.
func (p *poller) pollEvents(f *frame) error {
	url := fmt.Sprintf("%s/events?n=%d", p.base, p.nEvents)
	if p.seq > 0 {
		url = fmt.Sprintf("%s/events?since=%d", p.base, p.seq)
	}
	resp, err := p.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var tail struct {
		Seq    uint64      `json:"seq"`
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tail); err != nil {
		return fmt.Errorf("parsing /events: %w", err)
	}
	if p.seq > 0 && len(tail.Events) > 0 && tail.Events[0].Seq > p.seq+1 {
		f.dropped = tail.Events[0].Seq - p.seq - 1
	}
	p.tail = append(p.tail, tail.Events...)
	if len(p.tail) > p.nEvents {
		p.tail = p.tail[len(p.tail)-p.nEvents:]
	}
	if tail.Seq > p.seq {
		p.seq = tail.Seq
	}
	f.events = append([]obs.Event(nil), p.tail...)
	return nil
}

// pollTrace fetches the span tail; a 404 means the daemon has no
// tracer endpoint and the pane is skipped.
func (p *poller) pollTrace(f *frame) error {
	resp, err := p.client.Get(fmt.Sprintf("%s/trace?n=%d", p.base, p.nSpans))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil
	}
	var body struct {
		Sample    string             `json:"sample"`
		Count     uint64             `json:"count"`
		Anomalies uint64             `json:"anomalies"`
		Spans     []trace.SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("parsing /trace: %w", err)
	}
	f.traced = true
	f.sample, f.spanCount, f.anomalies, f.spans = body.Sample, body.Count, body.Anomalies, body.Spans
	return nil
}

// writeJSON emits the frame as one deterministic JSON document:
// top-level and nested keys ride maps (encoding/json sorts map keys),
// arrays keep server order.
func writeJSON(w io.Writer, f frame) error {
	doc := map[string]any{
		"metrics": f.metrics,
		"events":  f.events,
	}
	if f.traced {
		doc["trace"] = map[string]any{
			"sample":    f.sample,
			"count":     f.spanCount,
			"anomalies": f.anomalies,
			"spans":     f.spans,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// parseMetrics reads a Prometheus text exposition into a name -> value
// map; labelled samples keep their labels in the key, exactly as
// internal/obs writes them.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 1 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// render writes the one-screen view.
func render(w io.Writer, addr string, f frame, now time.Time) {
	m := f.metrics
	get := func(name string) float64 { return m[name] }
	q := func(hist, quantile string) string {
		return fmtDur(get(hist + `{quantile="` + quantile + `"}`))
	}
	fmt.Fprintf(w, "fabrictop %s — generation %.0f, %.0f swaps\n",
		addr, get("fabric_generation"), get("fabric_generation_swaps_total"))

	fmt.Fprintf(w, "fabric    resolves %s  unresolved %s  batches %s  served(gen) %s\n",
		fmtCount(get("fabric_resolves_total")), fmtCount(get("fabric_unresolved_total")),
		fmtCount(get("fabric_resolve_batches_total")), fmtCount(get("fabric_routes_served")))
	fmt.Fprintf(w, "          packed batch p50 %s  p90 %s  p99 %s  max %s\n",
		q("fabric_resolve_batch_packed_ns", "0.5"), q("fabric_resolve_batch_packed_ns", "0.9"),
		q("fabric_resolve_batch_packed_ns", "0.99"), fmtDur(get("fabric_resolve_batch_packed_ns_max")))

	fmt.Fprintf(w, "wire      conns %.0f (total %.0f)  frames %s  in %s  out %s  cuts %.0f\n",
		get("wire_conns_active"), get("wire_conns_total"),
		fmtCount(get("wire_frames_total")),
		fmtBytes(get("wire_bytes_read_total")), fmtBytes(get("wire_bytes_written_total")),
		get("wire_deadline_cuts_total"))
	fmt.Fprintf(w, "          request p50 %s  p90 %s  p99 %s  max %s\n",
		q("wire_request_ns", "0.5"), q("wire_request_ns", "0.9"),
		q("wire_request_ns", "0.99"), fmtDur(get("wire_request_ns_max")))
	// Frames per flush is the coalescing ratio: 1 for ping-pong peers,
	// the burst length for pipelined ones.
	perFlush := 0.0
	if n := get("wire_flush_frames_count"); n > 0 {
		perFlush = get("wire_flush_frames_sum") / n
	}
	fmt.Fprintf(w, "          flush p50 %s  p99 %s  frames/flush %.1f\n",
		q("wire_flush_ns", "0.5"), q("wire_flush_ns", "0.99"), perFlush)

	fmt.Fprintf(w, "sched     jobs %.0f  free %.0f leaves  frag %.2f  placements %s  releases %s  rejections %s\n",
		get("sched_jobs"), get("sched_free_leaves"), get("sched_fragmentation"),
		fmtCount(sumLabeled(m, "sched_placements_total")),
		fmtCount(get("sched_releases_total")), fmtCount(get("sched_rejections_total")))

	fmt.Fprintf(w, "evaluate  hits %s  misses %s  coalesced %s  score p99 %s\n",
		fmtCount(get("evaluate_cache_hits_total")), fmtCount(get("evaluate_cache_misses_total")),
		fmtCount(get("evaluate_cache_coalesced_total")), q("evaluate_score_ns", "0.99"))

	if f.traced {
		fmt.Fprintf(w, "trace     sample %s  spans %d  anomalies %d\n",
			f.sample, f.spanCount, f.anomalies)
		renderWaterfall(w, f.spans)
	}

	if f.dropped > 0 {
		fmt.Fprintf(w, "events    (%d most recent, dropped %d)\n", len(f.events), f.dropped)
	} else {
		fmt.Fprintf(w, "events    (%d most recent)\n", len(f.events))
	}
	for _, ev := range f.events {
		fmt.Fprintf(w, "  #%-4d %s  %-16s %s\n",
			ev.Seq, ev.Time.Format("15:04:05"), ev.Type, eventFields(ev))
	}
}

// renderWaterfall draws the most recent trace in the span tail as an
// offset/duration waterfall: every span of that trace, start order,
// bar position scaled to the trace's time window.
func renderWaterfall(w io.Writer, spans []trace.SpanRecord) {
	if len(spans) == 0 {
		return
	}
	id := spans[len(spans)-1].TraceID
	var tr []trace.SpanRecord
	for _, s := range spans {
		if s.TraceID == id {
			tr = append(tr, s)
		}
	}
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].Start < tr[j].Start })
	lo, hi := tr[0].Start, tr[0].Start+tr[0].Dur
	for _, s := range tr {
		if s.Start < lo {
			lo = s.Start
		}
		if end := s.Start + s.Dur; end > hi {
			hi = end
		}
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	const cols = 32
	fmt.Fprintf(w, "  trace %s… (%d spans, %s)\n", id[:8], len(tr), fmtDur(float64(span)))
	for _, s := range tr {
		from := int(int64(cols) * (s.Start - lo) / span)
		width := int(int64(cols) * s.Dur / span)
		if width < 1 {
			width = 1
		}
		if from+width > cols {
			width = cols - from
		}
		bar := strings.Repeat(" ", from) + strings.Repeat("#", width)
		fmt.Fprintf(w, "    %-28s |%-*s| %s\n", s.Name, cols, bar, fmtDur(float64(s.Dur)))
	}
}

// sumLabeled totals every sample of a labelled metric family (e.g.
// sched_placements_total across policies).
func sumLabeled(m map[string]float64, base string) float64 {
	total := m[base]
	for name, v := range m {
		if strings.HasPrefix(name, base+"{") {
			total += v
		}
	}
	return total
}

// eventFields renders an event's payload as "k=v" pairs in sorted key
// order, with the duration first when measured.
func eventFields(ev obs.Event) string {
	var sb strings.Builder
	if ev.Dur > 0 {
		fmt.Fprintf(&sb, "dur=%s", ev.Dur.Round(time.Microsecond))
	}
	keys := make([]string, 0, len(ev.Fields))
	for k := range ev.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%v", k, ev.Fields[k])
	}
	return sb.String()
}

// fmtCount renders a sample count compactly (12.3k, 4.5M).
func fmtCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// fmtBytes renders a byte count compactly.
func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// fmtDur renders a nanosecond sample as a rounded duration; zero (no
// samples yet) renders as "-".
func fmtDur(ns float64) string {
	if ns <= 0 {
		return "-"
	}
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(10 * time.Nanosecond).String()
	}
}
