package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/evaluate"
)

func churnOpts(par int) Options {
	return Options{Seeds: 2, Parallelism: par}
}

// scratchAnalytic is the analytic evaluator under another name: the
// scheduler picks delta placement scoring by observing an "analytic"
// backend, so a cell built on this wrapper scores every placement from
// scratch.
type scratchAnalytic struct{ evaluate.Evaluator }

func (scratchAnalytic) Name() string { return "analytic-from-scratch" }

// TestChurnSweepModesAgree is the churn differential: the sweep as
// shipped (delta placement scoring) and the same schedule replayed on
// the from-scratch reference must make bit-identical decisions — the
// hash folds exact float bits — and agree on every deterministic
// counter.
func TestChurnSweepModesAgree(t *testing.T) {
	inc, err := ChurnSweep(churnOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := churnSweep(churnOpts(4), func(c *core.TableCache) evaluate.Evaluator {
		return scratchAnalytic{evaluate.NewAnalytic(c)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if inc.DecisionHash != ref.DecisionHash {
		t.Errorf("decision hashes diverged: %#x (delta) vs %#x (from scratch)", inc.DecisionHash, ref.DecisionHash)
	}
	if len(inc.SwapNS) != inc.Swaps || len(ref.SwapNS) != ref.Swaps {
		t.Errorf("swap latency samples %d/%d, want one per swap (%d/%d)",
			len(inc.SwapNS), len(ref.SwapNS), inc.Swaps, ref.Swaps)
	}
	// Everything but the wall-clock fields must agree.
	inc.SwapNS, inc.PlaceSeconds = nil, 0
	ref.SwapNS, ref.PlaceSeconds = nil, 0
	if !reflect.DeepEqual(inc, ref) {
		t.Errorf("deterministic counters diverged:\ndelta        %+v\nfrom scratch %+v", inc, ref)
	}
	if inc.Placed == 0 {
		t.Error("churn schedule placed no jobs")
	}
	if inc.Swaps == 0 {
		t.Error("churn schedule never swapped a generation — the sweep is not exercising re-optimization")
	}
	if inc.TouchedRoutes == 0 {
		t.Error("swaps installed without route deltas")
	}
}

// TestChurnSweepParallelismInvariant is the sweep's determinism gate:
// the deterministic output (everything outside bracketed wall-clock
// lines) must be byte-identical between a sequential run and a
// maximally parallel one.
func TestChurnSweepParallelismInvariant(t *testing.T) {
	render := func(par int) string {
		row, err := ChurnSweep(churnOpts(par))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		WriteChurnSweep(&buf, row)
		var kept []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "[") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Errorf("sequential and parallel runs differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}
