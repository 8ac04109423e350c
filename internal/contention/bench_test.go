package contention

import (
	"testing"

	"repro/internal/benchcal"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// BenchmarkCalibration is the shared machine-speed reference
// (internal/benchcal): cmd/benchgate divides this package's gated
// benchmarks by its drift ratio so the regression gate tracks code,
// not CI-runner speed.
func BenchmarkCalibration(b *testing.B) { benchcal.Bench(b) }

// allPairsTable is the all-pairs d-mod-k table of the paper's slimmed
// tree XGFT(2;16,16;1,10) — the 65 280 routes every generation the
// fabric publishes is certified over and every Optimize candidate is
// scored on when all pairs are observed.
func allPairsTable(b *testing.B) (*xgft.Topology, *pattern.Pattern, *core.Table) {
	b.Helper()
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 10})
	p := pattern.AllToAll(tp.Leaves(), 1)
	tbl, err := core.BuildTable(tp, core.NewDModK(tp), p)
	if err != nil {
		b.Fatal(err)
	}
	return tp, p, tbl
}

// BenchmarkAnalyze prices the full census (byte loads, then the flow
// and group counts) of the all-pairs table.
func BenchmarkAnalyze(b *testing.B) {
	tp, p, tbl := allPairsTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(tp, p, tbl.Routes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyDeadlockFree certifies the all-pairs table.
func BenchmarkVerifyDeadlockFree(b *testing.B) {
	tp, _, tbl := allPairsTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyDeadlockFree(tp, tbl.Routes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckRoute runs the stateless deadlock gate over every route
// of the all-pairs table, as the fabric does at a table's first install.
func BenchmarkCheckRoute(b *testing.B) {
	tp, _, tbl := allPairsTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range tbl.Routes {
			if err := CheckRoute(tp, r.Src, r.Dst, r.Up); err != nil {
				b.Fatal(err)
			}
		}
	}
}
