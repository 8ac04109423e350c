package bench

import (
	"math"
	"testing"

	"repro/internal/hashutil"
)

func TestPercentileIsAnExactOrderStatistic(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {0.81, 50}, {0.99, 50}, {1, 50},
	} {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("Percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile of nothing = %v, want 0", got)
	}
	// 1..1000: the nearest-rank p99 is the 990th sample, with ten beyond.
	seq := make([]float64, 1000)
	for i := range seq {
		seq[i] = float64(i + 1)
	}
	if got := Percentile(seq, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := Beyond(len(seq), 0.99); got != 10 {
		t.Errorf("Beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := Beyond(len(seq), 0.999); got != 1 {
		t.Errorf("Beyond(1000, 0.999) = %d, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// steadyPhase draws n samples evenly over length seconds with values
// around 200 (a keyed, reproducible jitter of +-20).
func steadyPhase(n int, length float64, key uint64) []Sample {
	st := hashutil.NewStream(0x7e57, key)
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{At: length * float64(i) / float64(n), Value: 180 + 40*st.Float64()}
	}
	return out
}

// stall overwrites the samples due in [at, at+dur) the way one stall of
// dur seconds shows from due time: the first waits the whole stall,
// the ones queued behind it the remainder.
func stall(samples []Sample, at, dur float64) {
	for i := range samples {
		if s := samples[i]; s.At >= at && s.At < at+dur {
			samples[i].Value += (at + dur - s.At) * 1e6
		}
	}
}

func TestOneStallMovesTheRawTailButNotTheWindowedValue(t *testing.T) {
	const n, length = 6000, 3.0
	clean := steadyPhase(n, length, 1)
	dirty := steadyPhase(n, length, 1)
	stall(dirty, 1.234, 0.020) // one 20 ms neighbour stall: 40 samples of 6000

	rawClean, rawDirty := Percentile(values(clean), 0.995), Percentile(values(dirty), 0.995)
	if rawDirty < 10*rawClean {
		t.Fatalf("the stall should blow up the raw p99.5: clean %v, dirty %v", rawClean, rawDirty)
	}
	wClean := WindowedPercentile(clean, length, 10, 0.995)
	wDirty := WindowedPercentile(dirty, length, 10, 0.995)
	if math.Abs(wDirty.Value-wClean.Value) > 0.02*wClean.Value {
		t.Errorf("windowed p99.5 moved with one stall: clean %v, dirty %v", wClean.Value, wDirty.Value)
	}
	if wClean.Contaminated != 0 {
		t.Errorf("clean phase reports %d contaminated windows", wClean.Contaminated)
	}
	if wDirty.Contaminated != 1 {
		t.Errorf("dirty phase reports %d contaminated windows, want exactly the stalled one", wDirty.Contaminated)
	}
	if wDirty.Windows != 10 || wDirty.N != n {
		t.Errorf("windowed bookkeeping = %d windows, %d samples; want 10, %d", wDirty.Windows, wDirty.N, n)
	}
}

func TestWindowedPercentileKnownAnswer(t *testing.T) {
	// Four windows of five samples: window w holds w*10+1..w*10+5, so
	// its median is w*10+3 and the median of the windows is 18.
	var samples []Sample
	for w := 0; w < 4; w++ {
		for i := 1; i <= 5; i++ {
			samples = append(samples, Sample{At: float64(w) + float64(i)/10, Value: float64(w*10 + i)})
		}
	}
	got := WindowedPercentile(samples, 4, 4, 0.5)
	if got.Value != 18 || got.Windows != 4 || got.Contaminated != 0 || got.N != 20 {
		t.Errorf("WindowedPercentile = %+v, want value 18 over 4 windows of 20 samples", got)
	}
	// Samples outside the span land in the edge windows instead of
	// being dropped.
	samples = append(samples, Sample{At: -1, Value: 3}, Sample{At: 99, Value: 33})
	if got := WindowedPercentile(samples, 4, 4, 0.5); got.N != 22 || got.Windows != 4 {
		t.Errorf("out-of-span samples were dropped: %+v", got)
	}
	if got := WindowedPercentile(nil, 4, 4, 0.5); got != (Windowed{}) {
		t.Errorf("empty phase = %+v, want the zero value", got)
	}
}

func TestTwoStallsInDifferentRoundsDoNotMoveTheSetMedian(t *testing.T) {
	const n, length = 3000, 1.5
	clean, stalled, slow := newAcc(), newAcc(), newAcc()
	var cleanRounds []float64
	for r := 0; r < rounds; r++ {
		phase := steadyPhase(n, length, uint64(r))
		v := WindowedPercentile(phase, length, 10, 0.99).Value
		cleanRounds = append(cleanRounds, v)
		clean.round("client.rtt_p99_us", v, n)

		// Two 20 ms stalls, in rounds 1 and 3.
		dirty := steadyPhase(n, length, uint64(r))
		if r == 1 || r == 3 {
			stall(dirty, 0.3+0.2*float64(r), 0.020)
		}
		stalled.round("client.rtt_p99_us", WindowedPercentile(dirty, length, 10, 0.99).Value, n)

		// Slow phases of the machine: everything in rounds 2 and 4
		// takes half as long again, so no estimator inside the round can
		// save it.
		if r == 2 || r == 4 {
			v *= 1.5
		}
		slow.round("client.rtt_p99_us", v, n)
	}
	want := clean.values()["client.rtt_p99_us"]
	if len(want.Rounds) != rounds || want.N != rounds*n {
		t.Fatalf("accumulated %d rounds, %d samples; want %d, %d", len(want.Rounds), want.N, rounds, rounds*n)
	}
	if got := stalled.values()["client.rtt_p99_us"].Value; math.Abs(got-want.Value) > 0.01*want.Value {
		t.Errorf("two stalls in different rounds moved the set median: %v, clean %v", got, want.Value)
	}
	lo, hi := Percentile(cleanRounds, 0), Percentile(cleanRounds, 1)
	if got := slow.values()["client.rtt_p99_us"].Value; got < lo || got > hi {
		t.Errorf("two slow rounds of %d moved the set median outside the clean rounds' range: %v not in [%v, %v]", rounds, got, lo, hi)
	}
}

func TestAccSumsCountsAndReadsZeroWhenUnrecorded(t *testing.T) {
	a := newAcc()
	a.add("client.backlog_end", 2)
	a.add("client.backlog_end", 3)
	a.put("rss_mb", 12.5, 0)
	vals := a.values()
	if vals["client.backlog_end"].Value != 5 {
		t.Errorf("summed count = %v, want 5", vals["client.backlog_end"].Value)
	}
	if vals["rss_mb"].Value != 12.5 || vals["rss_mb"].Unit != "MB" {
		t.Errorf("single reading = %+v", vals["rss_mb"])
	}
	if v, ok := vals["sweep_s"]; !ok || v.Value != 0 || v.Unit != "s" {
		t.Errorf("unrecorded metric = %+v, %v; want a zero reading with its unit", v, ok)
	}
	if len(vals) != len(Catalog) {
		t.Errorf("values() has %d entries, the catalog %d", len(vals), len(Catalog))
	}
}
