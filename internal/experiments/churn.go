package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// The churn convergence sweep: the serving stack under sustained job
// arrivals, departures and link flaps. It drives a keyed-hash churn
// schedule per seed — telemetry placement, threshold-gated
// re-optimization, a link failing and healing underneath — and folds
// every placement and optimizer decision into a hash, so any change to
// scoring or installation that moves a decision moves the hash (the
// differential in churn_test.go replays the schedule against a
// from-scratch scoring reference and requires equal hashes). Wall-clock
// figures (time to a new generation, placement rate) are observational
// and rendered in a bracketed line; everything else is a pure function
// of the cell coordinates, so runs are byte-identical at any
// Parallelism.

// churnSeed domain-separates the churn schedule's draws.
const churnSeed = 0xc84a7

// churnOptEvery gates the re-optimization cadence (one
// threshold-gated pass every third arrival); churnFlapEvery and
// churnHealAfter shape the link-flap cycle (a keyed level-1 link fails
// before every fifth arrival and heals two arrivals later).
const (
	churnOptEvery  = 3
	churnFlapEvery = 5
	churnHealAfter = 2
	churnThreshold = 0.0
)

// churnDraws shape each seed's 18 arrivals: after a resident
// bit-reversal tenant on half the machine (the structured adversary
// d-mod-k cannot serve contention-free, so the optimizer has a swap to
// earn after every heal), interarrivals of 1-10 ticks and lifetimes of
// 20-69 over the placement sweep's WRF/CG/permutation job mix.
var churnDraws = draws{domain: churnSeed, gapLane: 1, lifeLane: 2, jobs: 18, gap: 10, life: 20, lives: 50}

// churnCell is one seed's outcome.
type churnCell struct {
	placed, rejected int
	flaps            int
	optimizes, swaps int
	touched          int
	hash             uint64
	swapNS           []int64
	placeSec         float64
}

// ChurnRow is the sweep's aggregate over the seeds.
type ChurnRow struct {
	// Placed/Rejected count submissions; Flaps the injected link
	// failures; Optimizes/Swaps the re-optimization passes and the
	// ones that installed a new generation.
	Placed    int
	Rejected  int
	Flaps     int
	Optimizes int
	Swaps     int
	// TouchedRoutes sums the installed generations' route deltas
	// against their predecessors.
	TouchedRoutes int
	// DecisionHash folds every placement (job leaves), rejection, and
	// optimizer decision (swap verdict, scores as exact float bits,
	// winning algorithm) across the seeds in order.
	DecisionHash uint64
	// SwapNS (time from deciding a pass to serving the new
	// generation, per swap) and PlaceSeconds (total wall time inside
	// Submit) are observational wall-clock figures: excluded from the
	// hash and rendered only in bracketed lines.
	SwapNS       []int64
	PlaceSeconds float64
}

// churnFold mixes a decision into the running hash.
func churnFold(h uint64, vs ...uint64) uint64 {
	return hashutil.Mix(append([]uint64{h}, vs...)...)
}

// ChurnSweep runs the churn schedule, one cell per seed on the
// parallel engine. Every cell owns a telemetry-enabled d-mod-k fabric
// and a telemetry-policy scheduler; after every third arrival the
// tenant mix is synced into the fabric's counters and a
// threshold-gated optimizer pass runs, while keyed link flaps degrade
// and heal the topology underneath. Its claim: the delta-scored
// decisions hash equal to a from-scratch scorer's —
// TestChurnSweepModesAgree. Options.Seeds defaults to 4 here; the
// sweep is analytic-only.
func ChurnSweep(opt Options) (ChurnRow, error) {
	return churnSweep(opt, evaluate.NewAnalytic)
}

// churnSweep is ChurnSweep with the cells' evaluator constructor
// injected, so the differential test can replay the schedule against a
// from-scratch scoring reference.
func churnSweep(opt Options, newEval func(*core.TableCache) evaluate.Evaluator) (ChurnRow, error) {
	opt, tp, err := tenantSweep(opt, 4)
	if err != nil {
		return ChurnRow{}, err
	}
	br, err := pattern.BitReversal(128, opt.MessageBytes)
	if err != nil {
		return ChurnRow{}, err
	}
	resident := arrival{1, math.MaxInt64, sched.JobSpec{Name: "resident-br", N: 128, Phases: []*pattern.Pattern{br}}}
	cells := make([]churnCell, opt.Seeds)
	err = opt.run(len(cells), func(idx int) error {
		seed := uint64(idx) + 1
		// Every cell owns its table cache (the shift and placement
		// sweeps share one across their cells): memo hits leaking across
		// cells would make the wall-clock figures depend on which seeds
		// ran first.
		cache := core.NewTableCache(64)
		f, err := dmodkFabric(tp, cache, newEval(cache))
		if err != nil {
			return err
		}
		policy, err := sched.PolicyByName("telemetry")
		if err != nil {
			return err
		}
		sc, err := sched.New(sched.Config{Fabric: f, Policy: policy, Seed: seed})
		if err != nil {
			return err
		}
		schedule, err := churnDraws.schedule(seed, opt.MessageBytes, resident)
		if err != nil {
			return err
		}
		cell := &cells[idx]
		cell.hash = hashutil.Mix(churnSeed, seed)
		var running departures
		healIn := 0
		for e, ev := range schedule {
			// The flap cycle: fail a keyed level-1 link before every
			// fifth arrival, heal it two arrivals later. Heal rebuilds
			// the configured healthy table, discarding any optimized
			// choice — the optimizer has to re-earn its swap, which is
			// exactly the churn the sweep measures.
			if healIn > 0 {
				if healIn--; healIn == 0 {
					if _, err := f.Heal(); err != nil {
						return err
					}
				}
			}
			if e%churnFlapEvery == churnFlapEvery-1 {
				li := int(hashutil.Mix(churnSeed, seed, uint64(e), 3) % uint64(tp.M(1)))
				lp := int(hashutil.Mix(churnSeed, seed, uint64(e), 4) % uint64(tp.W(1)))
				if _, err := f.FailLink(1, li, lp); err != nil {
					return err
				}
				cell.flaps++
				healIn = churnHealAfter
			}
			for _, d := range running.due(ev.arrive) {
				if err := sc.Release(d.id); err != nil {
					return err
				}
			}
			var job *sched.Job
			cell.placeSec += timed(func() { job, err = sc.Submit(ev.spec) }).Seconds()
			if errors.Is(err, sched.ErrNoCapacity) {
				cell.rejected++
				cell.hash = churnFold(cell.hash, 2, uint64(e))
			} else if err != nil {
				return err
			} else {
				cell.placed++
				cell.hash = churnFold(cell.hash, 1, job.ID)
				for _, l := range job.Leaves {
					cell.hash = churnFold(cell.hash, uint64(l))
				}
				running = append(running, departure{ev.depart, job.ID})
			}
			if e%churnOptEvery != churnOptEvery-1 {
				continue
			}
			// Re-fit the table to the tenant mix: sync the counters,
			// then one threshold-gated pass.
			sc.SyncTelemetry()
			var res fabric.OptimizeResult
			optNS := timed(func() {
				res, err = f.Optimize(fabric.OptimizeConfig{Threshold: churnThreshold, Seed: seed, Reset: true})
			}).Nanoseconds()
			if err != nil {
				return err
			}
			cell.optimizes++
			cell.hash = churnFold(cell.hash, 3,
				boolBit(res.Swapped),
				math.Float64bits(res.Current),
				math.Float64bits(res.BestSlowdown))
			for _, c := range res.Best {
				cell.hash = churnFold(cell.hash, uint64(c))
			}
			if res.Swapped {
				cell.swaps++
				cell.touched += res.SwapTouched
				cell.swapNS = append(cell.swapNS, optNS)
			}
		}
		return nil
	})
	if err != nil {
		return ChurnRow{}, err
	}
	row := ChurnRow{DecisionHash: hashutil.Mix(churnSeed)}
	for _, c := range cells {
		row.Placed += c.placed
		row.Rejected += c.rejected
		row.Flaps += c.flaps
		row.Optimizes += c.optimizes
		row.Swaps += c.swaps
		row.TouchedRoutes += c.touched
		row.DecisionHash = churnFold(row.DecisionHash, c.hash)
		row.SwapNS = append(row.SwapNS, c.swapNS...)
		row.PlaceSeconds += c.placeSec
	}
	return row, nil
}

// timed runs fn and returns its wall time, which the sweep renders
// only in its bracketed line.
func timed(fn func()) time.Duration {
	start := time.Now() //lint:allow nondeterminism wall time is observational (bracketed output only)
	fn()
	return time.Since(start) //lint:allow nondeterminism wall time is observational (bracketed output only)
}

// boolBit maps a bool to a hashable word.
func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// swapPercentileNS returns the p-th percentile (nearest-rank) of the
// per-swap latencies.
func swapPercentileNS(ns []int64, p float64) int64 {
	if len(ns) == 0 {
		return 0
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// WriteChurnSweep renders the churn sweep: the deterministic decision
// columns first, then the wall-clock figures in a bracketed line
// (stripped by the CLI determinism check, like every timing line).
func WriteChurnSweep(w io.Writer, r ChurnRow) {
	fmt.Fprintln(w, "Churn convergence — XGFT(2;16,16;1,10), telemetry placement + threshold-gated re-optimization under link flaps")
	fmt.Fprintf(w, "%6s %8s %6s %9s %6s %8s  %s\n",
		"placed", "rejected", "flaps", "optimizes", "swaps", "touched", "decision-hash")
	fmt.Fprintf(w, "%6d %8d %6d %9d %6d %8d  %#016x\n",
		r.Placed, r.Rejected, r.Flaps, r.Optimizes, r.Swaps, r.TouchedRoutes, r.DecisionHash)
	if len(r.SwapNS) == 0 {
		fmt.Fprintln(w, "[no swaps]")
		return
	}
	p50 := float64(swapPercentileNS(r.SwapNS, 0.50)) / 1e6
	p99 := float64(swapPercentileNS(r.SwapNS, 0.99)) / 1e6
	rate := 0.0
	if r.PlaceSeconds > 0 {
		rate = float64(r.Placed) / r.PlaceSeconds
	}
	fmt.Fprintf(w, "[time-to-new-generation p50=%.1fms p99=%.1fms over %d swaps, %.0f placements/s]\n",
		p50, p99, len(r.SwapNS), rate)
}
