package stats

import (
	"math"
	"repro/internal/hashutil"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %.2f/%.2f, want 2/4", s.Q1, s.Q3)
	}
	if s.Mean != 3 {
		t.Errorf("mean = %.2f", s.Mean)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Errorf("stddev = %.4f, want sqrt(2)", s.StdDev)
	}
	if s.IQR() != 2 {
		t.Errorf("IQR = %.2f", s.IQR())
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 || s.StdDev != 0 {
		t.Errorf("single-sample summary = %+v", s)
	}
}

func TestSummarizeConstant(t *testing.T) {
	s := Summarize([]float64{2.5, 2.5, 2.5, 2.5})
	if s.StdDev != 0 {
		t.Errorf("constant samples have stddev %.9f", s.StdDev)
	}
}

func TestSummarizeLargeOffsetStdDev(t *testing.T) {
	// Samples with a huge common offset and tiny spread: the old
	// E[x²]-E[x]² variance cancelled catastrophically here (makespans
	// around 1e9 ns reported a zero or garbage StdDev). The two-pass
	// form is exact: variance of {0,1,2} is 2/3 regardless of offset.
	s := Summarize([]float64{1e9, 1e9 + 1, 1e9 + 2})
	want := math.Sqrt(2.0 / 3.0)
	if math.Abs(s.StdDev-want) > 1e-9 {
		t.Errorf("offset samples stddev = %.12f, want %.12f", s.StdDev, want)
	}
	if s.Mean != 1e9+1 {
		t.Errorf("offset samples mean = %.3f, want 1e9+1", s.Mean)
	}
}

func TestSummarizeInterpolation(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Errorf("even-count median = %.3f, want 2.5", s.Median)
	}
	if math.Abs(s.Q1-1.75) > 1e-12 || math.Abs(s.Q3-3.25) > 1e-12 {
		t.Errorf("quartiles = %.3f/%.3f, want 1.75/3.25", s.Q1, s.Q3)
	}
}

func TestSummarizeUnsortedInputUnchanged(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	Summarize(in)
	if in[0] != 5 || in[4] != 3 {
		t.Error("Summarize mutated its input")
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty input")
		}
	}()
	Summarize(nil)
}

func TestStringFormat(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	str := s.String()
	for _, part := range []string{"min=", "med=", "max=", "n=3"} {
		if !strings.Contains(str, part) {
			t.Errorf("String() = %q missing %q", str, part)
		}
	}
}

func TestQuickSummaryInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := hashutil.NewStream(uint64(seed))
		n := 1 + rng.Intn(100)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = (rng.Float64() - 0.5) * 20
		}
		s := Summarize(samples)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 &&
			s.Q3 <= s.Max && s.Mean >= s.Min && s.Mean <= s.Max && s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
