package experiments

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/contention"
	"repro/internal/evaluate"
	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/xgft"
)

// The placement churn sweep: the paper evaluates routing for one
// workload owning the whole XGFT; a multi-tenant cluster instead runs
// a churning mix of jobs whose placement decides which routes ever
// carry traffic. This sweep drives an arrival/departure schedule
// (keyed-hash interarrivals and lifetimes, a WRF/CG/permutation job
// mix) through a scheduler per placement policy and measures, per
// placed job, the analytic slowdown of the job's remapped traffic
// inside the full tenant mix — plus the free-pool fragmentation the
// policy leaves behind over time. Placement quality and routing
// quality interact: a policy that scatters a job turns its locality
// into top-level crossings no routing table can undo.

// placementSeed domain-separates the churn schedule's draws.
const placementSeed = 0x9ac37

// placementPolicies enumerates the compared policies in result order.
var placementPolicies = []string{"linear", "random", "balanced", "telemetry"}

// placementDraws shape each seed's 30 arrivals: interarrivals of 1-15
// ticks and lifetimes of 25-84, so the steady state holds several
// concurrent tenants and departures interleave with arrivals.
var placementDraws = draws{domain: placementSeed, gapLane: 4, lifeLane: 5, jobs: 30, gap: 15, life: 25, lives: 60}

// placementSpec draws job e of seed s from the keyed splitmix64
// stream: a WRF halo, a CG phase set or a random permutation, sized
// so the mix fragments the pool (sizes are not all multiples of each
// other) without filling it.
func placementSpec(seed uint64, e int, bytes int64) (sched.JobSpec, error) {
	kind := hashutil.Mix(placementSeed, seed, uint64(e), 1) % 3
	pick := hashutil.Mix(placementSeed, seed, uint64(e), 2)
	switch kind {
	case 0: // WRF halo on an n/16 x 16 task mesh
		n := []int{32, 48, 64}[pick%3]
		return sched.JobSpec{
			Name:   fmt.Sprintf("wrf-%d", n),
			N:      n,
			Phases: []*pattern.Pattern{pattern.WRF(n/16, 16, bytes)},
		}, nil
	case 1: // NAS CG phase structure
		n := []int{32, 64, 128}[pick%3]
		phases, err := pattern.CGPhases(n, bytes)
		if err != nil {
			return sched.JobSpec{}, err
		}
		return sched.JobSpec{
			Name:   fmt.Sprintf("cg-%d", n),
			N:      n,
			Phases: phases,
		}, nil
	default: // random permutation
		n := []int{8, 16, 24, 40}[pick%4]
		p := pattern.KeyedRandomPermutation(n, bytes, hashutil.Mix(placementSeed, seed, uint64(e), 3))
		return sched.JobSpec{
			Name:   fmt.Sprintf("perm-%d", n),
			N:      n,
			Phases: []*pattern.Pattern{p},
		}, nil
	}
}

// perJobSlowdown measures one job inside the current tenant mix: the
// congestion bound restricted to the resources the job's flows touch
// (its injection/ejection adapters and every channel its routes
// ride, loaded with all tenants' bytes), normalized by the job's own
// crossbar bound. 1 means the placement added no contention at all;
// interference from co-tenants sharing a channel counts against the
// job.
func perJobSlowdown(tp *xgft.Topology, gen *fabric.Generation, combined, job *pattern.Pattern) (float64, error) {
	routes := make([]xgft.Route, len(combined.Flows))
	for i, fl := range combined.Flows {
		r, ok := gen.Resolve(fl.Src, fl.Dst)
		if !ok {
			return 0, fmt.Errorf("experiments: pair (%d,%d) did not resolve", fl.Src, fl.Dst)
		}
		routes[i] = r
	}
	a, err := contention.ByteLoads(tp, combined, routes)
	if err != nil {
		return 0, err
	}
	var bound int64
	max := func(v int64) {
		if v > bound {
			bound = v
		}
	}
	for _, fl := range job.Flows {
		if fl.Src == fl.Dst {
			continue
		}
		max(a.InjectBytes[fl.Src])
		max(a.EjectBytes[fl.Dst])
		r, ok := gen.Resolve(fl.Src, fl.Dst)
		if !ok {
			return 0, fmt.Errorf("experiments: job pair (%d,%d) did not resolve", fl.Src, fl.Dst)
		}
		c := tp.Climb(fl.Src, fl.Dst)
		for l, p := range r.Up {
			up, down := c.Step(l, p)
			max(a.UpBytes[up])
			max(a.DownBytes[down])
		}
	}
	return contention.Ratio(bound, contention.CrossbarBound(job)), nil
}

// PlacementRow is one policy's aggregate over the churn schedule.
type PlacementRow struct {
	Policy string
	// Placed and Rejected count submissions across all seeds.
	Placed   int
	Rejected int
	// PerJob is the distribution of per-job slowdowns at placement
	// time; Frag the distribution of free-pool fragmentation sampled
	// after every arrival.
	PerJob stats.Summary
	Frag   stats.Summary
}

// PlacementSweep runs the churn schedule once per (policy, seed) cell
// on the parallel engine. Every cell owns a telemetry-enabled d-mod-k
// fabric and a scheduler; the fabric's counters are re-synced to the
// tenant mix after every event, so the telemetry policy scores
// candidates against genuinely observed background flows. The routing
// table is held static (d-mod-k) for every policy, isolating placement
// quality from the optimizer's table churn. Its claim: topology- and
// pattern-aware placement (balanced, telemetry) beats random scatter
// on median per-job slowdown, and balanced leaves a less fragmented
// pool — TestPlacementSweepPolicyOrdering. Schedules, placements and
// measurements are pure functions of the cell coordinates, so results
// are byte-identical for any Parallelism. Options.Seeds defaults to 8.
func PlacementSweep(opt Options) ([]PlacementRow, error) {
	opt, tp, err := tenantSweep(opt, 8)
	if err != nil {
		return nil, err
	}
	// Cell k*Seeds+s is policy k on seed s; its samples are
	// concatenated in (policy, seed, event) order after the pool drains.
	type cell struct {
		slows, frags []float64
		rejected     int
	}
	cells := make([]cell, len(placementPolicies)*opt.Seeds)
	err = opt.run(len(cells), func(idx int) error {
		c, seed := &cells[idx], uint64(idx%opt.Seeds)+1
		policy, err := sched.PolicyByName(placementPolicies[idx/opt.Seeds])
		if err != nil {
			return err
		}
		f, err := dmodkFabric(tp, opt.Cache, evaluate.NewAnalytic(opt.Cache))
		if err != nil {
			return err
		}
		sc, err := sched.New(sched.Config{Fabric: f, Policy: policy, Seed: seed})
		if err != nil {
			return err
		}
		schedule, err := placementDraws.schedule(seed, opt.MessageBytes)
		if err != nil {
			return err
		}
		var running departures
		for _, ev := range schedule {
			for _, d := range running.due(ev.arrive) {
				if err := sc.Release(d.id); err != nil {
					return err
				}
				sc.SyncTelemetry()
			}
			job, err := sc.Submit(ev.spec)
			if errors.Is(err, sched.ErrNoCapacity) {
				c.rejected++
				c.frags = append(c.frags, sc.Snapshot().Fragmentation)
				continue
			}
			if err != nil {
				return err
			}
			running = append(running, departure{ev.depart, job.ID})
			sc.SyncTelemetry()
			slow, err := perJobSlowdown(tp, f.Generation(), sc.TenantPattern(), job.LeafPattern())
			if err != nil {
				return err
			}
			c.slows = append(c.slows, slow)
			c.frags = append(c.frags, sc.Snapshot().Fragmentation)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]PlacementRow, len(placementPolicies))
	for k := range rows {
		var all cell
		for _, c := range cells[k*opt.Seeds : (k+1)*opt.Seeds] {
			all.slows = append(all.slows, c.slows...)
			all.frags = append(all.frags, c.frags...)
			all.rejected += c.rejected
		}
		rows[k] = PlacementRow{
			Policy:   placementPolicies[k],
			Placed:   len(all.slows),
			Rejected: all.rejected,
			PerJob:   stats.Summarize(all.slows),
			Frag:     stats.Summarize(all.frags),
		}
	}
	return rows, nil
}

// WritePlacementSweep renders the placement churn sweep.
func WritePlacementSweep(w io.Writer, rows []PlacementRow) {
	fmt.Fprintln(w, "Placement churn — XGFT(2;16,16;1,10), d-mod-k fabric, WRF/CG/permutation job mix")
	fmt.Fprintf(w, "%-10s %6s %8s  %-30s %-22s\n",
		"policy", "jobs", "rejected", "per-job slowdown [med]", "fragmentation [mean]")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %8d  med=%-5.2f q3=%-5.2f (%.2f-%.2f)  mean=%.2f max=%.2f\n",
			r.Policy, r.Placed, r.Rejected,
			r.PerJob.Median, r.PerJob.Q3, r.PerJob.Min, r.PerJob.Max,
			r.Frag.Mean, r.Frag.Max)
	}
}
