package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Blackbox dumps anomaly bundles — the flight-recorder tail, the
// journal tail and a metrics snapshot — to a spool directory as
// deterministic JSON: struct fields in declaration order, maps with
// sorted keys, ids as fixed-width hex, timestamps from the tracer
// clock. Given a fixed clock seam the same span history renders
// byte-identically.
type Blackbox struct {
	// Dir is the spool directory, created on first dump.
	Dir string
	// Tracer supplies the flight-recorder spans. Required.
	Tracer *Tracer
	// Journal, when set, contributes its event tail.
	Journal *obs.Journal
	// Metrics, when set, contributes a Snapshot and registers the dump
	// counter.
	Metrics *obs.Registry

	mu    sync.Mutex // serializes dumps; seq and dumps counter init under it
	seq   uint64
	dumps *obs.Counter
}

// bundleSpans and bundleEvents bound a bundle's span and event tails.
const (
	bundleSpans  = 256
	bundleEvents = 64
)

// Bundle is one blackbox dump.
type Bundle struct {
	Seq     uint64             `json:"seq"`
	Reason  string             `json:"reason"`
	Spans   []SpanRecord       `json:"spans"`
	Events  []obs.Event        `json:"events,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Dump writes one bundle and returns its path. Concurrent dumps
// serialize; sequence numbers order the spool.
func (b *Blackbox) Dump(reason string) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dumps == nil && b.Metrics != nil {
		b.dumps = b.Metrics.Counter(metricDumps, "blackbox bundles written", 1)
	}
	b.seq++
	bundle := Bundle{Seq: b.seq, Reason: reason, Spans: []SpanRecord{}}
	if b.Tracer != nil {
		bundle.Spans = b.Tracer.Spans(bundleSpans)
	}
	if b.Journal != nil {
		bundle.Events = b.Journal.Tail(bundleEvents)
	}
	if b.Metrics != nil {
		bundle.Metrics = b.Metrics.Snapshot()
	}
	data, err := json.MarshalIndent(bundle, "", "  ")
	if err != nil {
		return "", fmt.Errorf("trace: encoding blackbox bundle: %w", err)
	}
	if err := os.MkdirAll(b.Dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: blackbox spool: %w", err)
	}
	path := filepath.Join(b.Dir, fmt.Sprintf("blackbox-%06d.json", b.seq))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("trace: writing blackbox bundle: %w", err)
	}
	if b.dumps != nil {
		b.dumps.Inc()
	}
	return path, nil
}

// List returns the spool's bundle file names, sorted (and so in dump
// order). A missing spool directory lists as empty.
func (b *Blackbox) List() ([]string, error) {
	ents, err := os.ReadDir(b.Dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "blackbox-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// FlipDetector watches a boolean decision stream (did the Optimize
// pass swap?) and flags instability: two flips within the note
// window. A fabric oscillating between two tables is the paper's
// re-optimization loop failing to converge — exactly the state worth
// a blackbox bundle.
type FlipDetector struct {
	mu       sync.Mutex
	window   uint64
	n        uint64 // notes seen
	last     bool
	has      bool
	lastFlip uint64 // note index of the most recent flip, 0 when none
}

// NewFlipDetector returns a detector with the given note window
// (<= 0 selects 8).
func NewFlipDetector(window int) *FlipDetector {
	if window <= 0 {
		window = 8
	}
	return &FlipDetector{window: uint64(window)}
}

// Note records one decision outcome and reports whether it completed
// the second flip within the window — the anomaly.
func (d *FlipDetector) Note(outcome bool) bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n++
	if !d.has {
		d.has, d.last = true, outcome
		return false
	}
	if outcome == d.last {
		return false
	}
	d.last = outcome
	prev := d.lastFlip
	d.lastFlip = d.n
	return prev != 0 && d.n-prev <= d.window
}
