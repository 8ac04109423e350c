package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/sched"
	"repro/internal/xgft"
)

// The tenant harness of the stateful sweeps (-shift, -placement,
// -churn). Each threads fabric (and scheduler) state from one step to
// the next, so a sweep runs one cell per seed, or per (policy, seed),
// whose chain runs inside the cell; what the three share is below.

// tenantSweep is the stateful sweeps' preamble: Seeds defaults to
// seeds, only the analytic engine is accepted, MessageBytes defaults
// to 64 KiB, and the chains run on the paper's cost-reduced tree
// XGFT(2;16,16;1,10).
func tenantSweep(opt Options, seeds int) (Options, *xgft.Topology, error) {
	if opt.Seeds <= 0 {
		opt.Seeds = seeds
	}
	opt = opt.withDefaults()
	if opt.Engine != Analytic {
		return opt, nil, fmt.Errorf("experiments: the shift, placement and churn sweeps support only the analytic engine, not %q", opt.Engine)
	}
	if opt.MessageBytes <= 0 {
		opt.MessageBytes = 64 * 1024
	}
	tp, err := xgft.NewSlimmedTree(16, 16, 10)
	return opt, tp, err
}

// dmodkFabric is a stateful sweep's fabric: d-mod-k on tp with
// telemetry on, its tables served by cache and its candidates scored
// by eval.
func dmodkFabric(tp *xgft.Topology, cache *core.TableCache, eval evaluate.Evaluator) (*fabric.Fabric, error) {
	return fabric.New(fabric.Config{Topo: tp, Algo: core.NewDModK(tp), Cache: cache, Telemetry: true, Evaluator: eval})
}

// arrival is one tenant of a schedule: it arrives, runs spec, and
// holds its leaves until it departs.
type arrival struct {
	arrive, depart int64
	spec           sched.JobSpec
}

// draws are a schedule's keyed-hash constants: arrival e draws from
// (domain, seed, e) an interarrival of 1..gap ticks on lane gapLane
// and a lifetime of life..life+lives-1 ticks on lane lifeLane.
type draws struct {
	domain, gapLane, lifeLane uint64
	jobs                      int
	gap, life, lives          int64
}

// schedule draws seed's arrivals after prefix, one after the other up
// to d.jobs in all, over placementSpec's job mix.
func (d draws) schedule(seed uint64, bytes int64, prefix ...arrival) ([]arrival, error) {
	jobs := append(make([]arrival, 0, d.jobs), prefix...)
	var t int64
	if len(prefix) > 0 {
		t = prefix[len(prefix)-1].arrive
	}
	for e := len(jobs); e < d.jobs; e++ {
		t += 1 + int64(hashutil.Mix(d.domain, seed, uint64(e), d.gapLane)%uint64(d.gap))
		life := d.life + int64(hashutil.Mix(d.domain, seed, uint64(e), d.lifeLane)%uint64(d.lives))
		spec, err := placementSpec(seed, e, bytes)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, arrival{t, t + life, spec})
	}
	return jobs, nil
}

// departure is a running tenant's job id and departure tick.
type departure struct {
	depart int64
	id     uint64
}

// departures is a schedule's running tenants.
type departures []departure

// due pops the tenants departing by t, in (depart, id) order.
func (q *departures) due(t int64) []departure {
	s := *q
	slices.SortFunc(s, func(a, b departure) int { return cmp.Or(cmp.Compare(a.depart, b.depart), cmp.Compare(a.id, b.id)) })
	n := 0
	for n < len(s) && s[n].depart <= t {
		n++
	}
	*q = s[n:]
	return s[:n]
}
