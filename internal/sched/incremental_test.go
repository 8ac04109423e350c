package sched_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/evaluate"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/xgft"
)

// scratchAnalytic is the analytic evaluator under another name. The
// telemetry policy picks delta scoring by observing an "analytic"
// backend, so this wrapper sends it down the from-scratch path with
// bit-identical scores: the differential reference, with no production
// knob.
type scratchAnalytic struct{ evaluate.Evaluator }

func (scratchAnalytic) Name() string { return "analytic-from-scratch" }

// TestPlaceIncrementalMatchesFromScratch is the scheduler-side
// differential contract: the telemetry policy's delta path (job flows
// applied to a shared background LoadState and reverted) must place
// every job on exactly the leaves the from-scratch path chooses,
// through a churny submit/release sequence that grows, fragments, and
// re-fills the pool.
func TestPlaceIncrementalMatchesFromScratch(t *testing.T) {
	run := func(ev evaluate.Evaluator) [][]int {
		f := testFabric(t, 4, false)
		p, err := sched.PolicyByName("telemetry")
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.New(sched.Config{Fabric: f, Policy: p, Evaluator: ev})
		if err != nil {
			t.Fatal(err)
		}
		var placements [][]int
		var live []uint64
		for i := 0; i < 24; i++ {
			n := int(hashutil.Mix(0x91ace, uint64(i))%12) + 2
			job, err := s.Submit(permSpec(fmt.Sprintf("j%d", i), n, uint64(i)+1))
			if errors.Is(err, sched.ErrNoCapacity) {
				placements = append(placements, nil)
			} else if err != nil {
				t.Fatal(err)
			} else {
				placements = append(placements, job.Leaves)
				live = append(live, job.ID)
			}
			// Release the oldest live job on a keyed cadence so later
			// placements score against a fragmented, shifting background.
			if len(live) > 0 && hashutil.Mix(0x91ace, 7, uint64(i))%3 == 0 {
				if err := s.Release(live[0]); err != nil {
					t.Fatal(err)
				}
				live = live[1:]
			}
		}
		return placements
	}
	inc, scratch := run(nil), run(scratchAnalytic{evaluate.NewAnalytic(nil)})
	if !reflect.DeepEqual(inc, scratch) {
		t.Fatalf("placements diverged:\nincremental:  %v\nfrom scratch: %v", inc, scratch)
	}
}

// TestPlaceRejectsMisroutedBackground: a Resolve that hands back a
// route for some other pair must fail the placement — not silently
// demote it to the from-scratch path, which would trust the same
// routes.
func TestPlaceRejectsMisroutedBackground(t *testing.T) {
	f := testFabric(t, 4, false)
	tp := f.Topology()
	bg := pattern.New(tp.Leaves())
	bg.Add(0, 5, 100)
	resolve := f.Generation().Resolve
	req := &sched.Request{
		Topo:       tp,
		Free:       []int{8, 9, 10, 11},
		N:          2,
		JobID:      1,
		Seed:       1,
		Pattern:    permSpec("probe", 2, 1).Phases[0],
		Background: bg,
		Resolve: func(src, dst int) (xgft.Route, bool) {
			if src == 0 && dst == 5 {
				return resolve(1, 5)
			}
			return resolve(src, dst)
		},
	}
	if leaves, err := sched.Telemetry().Place(req); err == nil {
		t.Fatalf("placed on %v against a background route whose endpoints do not match its pair", leaves)
	}
	req.Resolve = resolve
	if _, err := sched.Telemetry().Place(req); err != nil {
		t.Fatalf("the same request with honest routes: %v", err)
	}
}
