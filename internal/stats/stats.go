// Package stats provides the descriptive statistics behind the
// paper's boxplot figures: five-number summaries (min, quartiles,
// median, max) over the 40-60 seeded samples per configuration, plus
// means and standard deviations for reporting.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a boxplot five-number summary plus moments.
type Summary struct {
	N              int
	Min, Max       float64
	Q1, Median, Q3 float64
	Mean, StdDev   float64
}

// Summarize computes the summary of the samples. It panics on an
// empty slice: summarizing nothing is a programming error.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		panic("stats: summarizing empty sample set") //lint:allow banned documented precondition; empty input is a programming error
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(n)
	// Two-pass variance: the textbook E[x²]-E[x]² form catastrophically
	// cancels for large-magnitude samples with small spread (makespans
	// around 1e9 ns would report a zero or garbage StdDev).
	var m2 float64
	for _, v := range s {
		d := v - mean
		m2 += d * d
	}
	variance := m2 / float64(n)
	return Summary{
		N:      n,
		Min:    s[0],
		Max:    s[n-1],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Mean:   mean,
		StdDev: math.Sqrt(variance),
	}
}

// quantile interpolates linearly between order statistics (type-7
// quantile, the common default).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// IQR returns the interquartile range.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// String renders the five-number summary and sample count on one line.
func (s Summary) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f (n=%d)",
		s.Min, s.Q1, s.Median, s.Q3, s.Max, s.N)
}
