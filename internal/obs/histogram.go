package obs

import (
	"bufio"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram buckets: log-linear (HDR-style) over non-negative int64
// values — nanosecond latencies in practice. Values below 2^subBits
// get one bucket each (exact); above, every power-of-two octave is
// split into 2^subBits linear sub-buckets, bounding the relative
// quantile error at 1/2^subBits = 12.5%. The whole structure is a
// flat array of atomic counters: Observe is a bucket-index
// computation (a bit scan and two shifts) plus four uncontended
// atomic operations, no locks, no allocation — cheap enough for the
// resolve hot path the bench gate defends.
const (
	subBits    = 3
	subCount   = 1 << subBits
	numBuckets = subCount + (64-subBits)<<subBits // exact region + octaves
)

// exportQuantiles are the quantiles exposition and snapshots report.
var exportQuantiles = []struct {
	q     float64
	label string
}{
	{0.5, "0.5"},
	{0.9, "0.9"},
	{0.99, "0.99"},
}

// Histogram is a lock-free log-bucketed distribution recorder with
// p50/p90/p99/max readout. The zero value is not ready; histograms
// are created through Registry.Histogram.
type Histogram struct {
	name, help string
	count      atomic.Uint64
	sum        atomic.Int64
	max        atomic.Int64
	buckets    [numBuckets]atomic.Uint64
}

func newHistogram(name, help string) *Histogram {
	return &Histogram{name: name, help: help}
}

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// bucketIndex maps a non-negative value to its bucket.
//
//repro:hotpath
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - 1 // position of the top bit, >= subBits
	mant := (v >> (exp - subBits)) & (subCount - 1)
	return int((exp-subBits)<<subBits) + int(mant) + subCount
}

// bucketBound returns the largest value mapping to bucket i — the
// value Quantile reports for observations landing there.
func bucketBound(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	u := uint(i - subCount)
	exp := u>>subBits + subBits
	mant := uint64(u & (subCount - 1))
	low := uint64(1)<<exp | mant<<(exp-subBits)
	high := low + 1<<(exp-subBits) - 1
	if high > uint64(1<<63-1) {
		high = 1<<63 - 1
	}
	return int64(high)
}

// epoch anchors Nanotime. It carries a monotonic reading, so time.Since
// against it reads the monotonic clock alone.
var epoch = time.Now()

// Nanotime returns monotonic nanoseconds since the package loaded: one
// monotonic clock read, where time.Now reads the wall clock as well.
// It is the timestamp for latencies bound for Observe; deadlines still
// want time.Now.
//
//repro:hotpath
func Nanotime() int64 { return int64(time.Since(epoch)) }

// Observe records one value. Negative values clamp to zero (a clock
// step mid-measurement must not corrupt the top octave).
//
//repro:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (exact, not bucketed); 0
// before any observation.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of
// the observed values, accurate to the bucket resolution (12.5%
// relative above the exact region). It returns 0 when nothing has
// been observed. Concurrent observations make the readout
// approximate, never torn.
func (h *Histogram) Quantile(q float64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Snapshot the buckets first so the walk is over one consistent-ish
	// view; the count is derived from the same snapshot.
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen uint64
	for i := range counts {
		seen += counts[i]
		if seen >= target {
			// Never report beyond the exact maximum: the top bucket's
			// bound can overshoot it by the bucket width.
			return min64(bucketBound(i), h.Max())
		}
	}
	return h.Max()
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// write exposes the histogram as a Prometheus summary: quantile
// samples, _sum and _count, plus a _max gauge (the exact maximum,
// which summaries cannot carry).
func (h *Histogram) write(w *bufio.Writer, header bool) {
	writeHeader(w, header, h.name, h.help, "summary")
	for _, q := range exportQuantiles {
		fmt.Fprintf(w, "%s %d\n", labeledName(h.name, "quantile", q.label), h.Quantile(q.q))
	}
	fmt.Fprintf(w, "%s_sum %d\n", h.name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.Count())
	fmt.Fprintf(w, "# TYPE %s_max gauge\n%s_max %d\n", baseName(h.name), h.name, h.Max())
}
