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

// BenchmarkVerifyDeadlockFree certifies the all-pairs d-mod-k table of
// the paper's slimmed tree XGFT(2;16,16;1,10) — the 65 280 routes
// every generation the fabric publishes is checked over.
func BenchmarkVerifyDeadlockFree(b *testing.B) {
	tp := xgft.MustNew(2, []int{16, 16}, []int{1, 10})
	tbl, err := core.BuildTable(tp, core.NewDModK(tp), pattern.AllToAll(tp.Leaves(), 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyDeadlockFree(tp, tbl.Routes); err != nil {
			b.Fatal(err)
		}
	}
}
