package bench

import (
	"math"
	"sort"
)

// The estimator discards contaminated samples by rule, not by hope
// (the trimming idea ROADMAP carries over from robust clustering): a
// shared 2-vCPU box stalls for tens of milliseconds at random, and one
// such stall moves a raw p99 by an order of magnitude. Three nested
// medians contain it:
//
//   - inside a phase, a percentile is computed per window (ten equal
//     slices of the phase) and the phase value is the median of the
//     window values, so a stall poisons one window, not the phase;
//   - windows whose value exceeds three times that median are counted
//     as contaminated and reported, never silently dropped;
//   - across rounds, a metric is the median of its round values, so a
//     slow phase of the machine poisons one round, not the metric.
//
// Percentiles are exact order statistics over the raw samples — no
// log buckets (internal/obs histograms round to a power-of-two grid,
// which is fine for a dashboard and useless for a 10 % gate).

// contaminationFactor is how far above the median of the window
// values a window must read to be counted as contaminated.
const contaminationFactor = 3

// Sample is one timed operation: when it was due (or finished),
// relative to the start of its phase, and how long it took.
type Sample struct {
	At    float64 // seconds since phase start
	Value float64 // the measured quantity, in the metric's unit
}

// Percentile returns the p-quantile (0 <= p <= 1) of the samples by
// the nearest-rank rule: the smallest sample with at least p·n samples
// at or below it. It is an exact order statistic — the value returned
// is always one of the samples. An empty input reads 0.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Median returns the middle sample (the mean of the two middle
// samples for an even count). An empty input reads 0.
func Median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Beyond reports how many of n samples lie strictly beyond the
// p-quantile's rank — the support a reported tail percentile has (the
// choosing-metrics rule asks for at least ten).
func Beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

// Windowed is a median-of-windows estimate of one phase.
type Windowed struct {
	// Value is the median over the non-empty windows of the per-window
	// percentile.
	Value float64
	// Windows counts the non-empty windows; Contaminated those whose
	// value exceeded contaminationFactor times Value.
	Windows      int
	Contaminated int
	// N is the total sample count.
	N int
}

// WindowedPercentile splits [0, length) seconds into the given number
// of equal windows by Sample.At, takes the p-quantile inside each
// non-empty window and returns the median of those values. Samples
// outside the span land in the first or last window.
func WindowedPercentile(samples []Sample, length float64, windows int, p float64) Windowed {
	if len(samples) == 0 || windows < 1 || length <= 0 {
		return Windowed{}
	}
	buckets := make([][]float64, windows)
	for _, s := range samples {
		w := int(s.At / length * float64(windows))
		if w < 0 {
			w = 0
		}
		if w >= windows {
			w = windows - 1
		}
		buckets[w] = append(buckets[w], s.Value)
	}
	var vals []float64
	for _, b := range buckets {
		if len(b) > 0 {
			vals = append(vals, Percentile(b, p))
		}
	}
	out := Windowed{Value: Median(vals), Windows: len(vals), N: len(samples)}
	for _, v := range vals {
		if v > contaminationFactor*out.Value {
			out.Contaminated++
		}
	}
	return out
}

// values strips the timestamps.
func values(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.Value
	}
	return out
}
