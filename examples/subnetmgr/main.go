// Subnet-manager workflow: compute a routing table offline, persist
// it (and the application trace), then reload both and replay — the
// way the paper's routes were "supplied, along with the topology and
// mapping, to the Venus simulator". Demonstrates the FixedTable and
// trace serialization APIs, then the online counterpart: a serving
// fabric with the multi-tenant job scheduler on top (submit two
// jobs, fail a link, release a job, re-optimize for the tenant mix),
// then a heal and an optimizer swap driven by skewed resolves.
package main

import (
	"bytes"
	"fmt"
	"log"

	repro "repro"
)

func main() {
	tree, err := repro.NewSlimmedTree(16, 16, 12)
	if err != nil {
		log.Fatal(err)
	}
	phases, err := repro.CGPhases(128, 64*1024)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Offline: pick routes with the pattern-aware optimizer and
	// freeze them into an explicit table.
	colored := repro.NewColored(tree, phases, repro.ColoredConfig{})
	var pairs [][2]int
	for _, ph := range phases {
		for _, f := range ph.Flows {
			pairs = append(pairs, [2]int{f.Src, f.Dst})
		}
	}
	table, err := repro.SnapshotRoutes(tree, colored, pairs)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Persist the table and the application trace (here to memory
	// buffers; files work the same).
	var tableFile, traceFile bytes.Buffer
	if _, err := table.WriteTo(&tableFile); err != nil {
		log.Fatal(err)
	}
	trace, err := repro.TraceFromPhases(128, phases, 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.WriteTrace(&traceFile, trace); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted %d routes (%d bytes) and a %d-message trace (%d bytes)\n",
		table.Len(), tableFile.Len(), trace.CountMessages(), traceFile.Len())

	// 3. Later: reload both and replay. Unlisted pairs fall back to
	// D-mod-k, exactly like a default-routed fabric.
	loadedTable, err := repro.ReadRoutingTable(tree, &tableFile, repro.NewDModK(tree))
	if err != nil {
		log.Fatal(err)
	}
	loadedTrace, err := repro.ReadTrace(&traceFile)
	if err != nil {
		log.Fatal(err)
	}
	slow, err := repro.ReplaySlowdown(loadedTrace, tree, loadedTable,
		repro.ReplayConfig{Net: repro.DefaultSimConfig()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed CG.D-128 with the frozen pattern-aware table: slowdown %.2f\n", slow)

	// Contrast: the same replay under plain D-mod-k.
	dmodk, err := repro.ReplaySlowdown(loadedTrace, tree, repro.NewDModK(tree),
		repro.ReplayConfig{Net: repro.DefaultSimConfig()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the same fabric under d-mod-k:                        slowdown %.2f\n", dmodk)

	// 4. Online: the same role as a live subnet manager — a serving
	// fabric whose leaf pool the job scheduler owns. Placement is
	// policy-driven and every job's pattern is remapped onto its
	// allocation (the MappingFromLeaves path used for replays too).
	fab, err := repro.NewFabric(repro.FabricConfig{
		Topo: tree, Algo: repro.NewDModK(tree), Telemetry: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	sched, err := repro.NewScheduler(repro.SchedulerConfig{
		Fabric: fab, Policy: repro.BalancedPlacement(),
	})
	if err != nil {
		log.Fatal(err)
	}
	cgPhases, err := repro.CGPhases(64, 64*1024)
	if err != nil {
		log.Fatal(err)
	}
	jobA, err := sched.Submit(repro.JobSpec{Name: "cg-64", N: 64, Phases: cgPhases})
	if err != nil {
		log.Fatal(err)
	}
	jobB, err := sched.Submit(repro.JobSpec{
		Name: "wrf-32", N: 32,
		Phases: []*repro.Pattern{repro.WRF(2, 16, 64*1024)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduled %s on leaves %d-%d and %s on leaves %d-%d (policy %s)\n",
		jobA.Name, jobA.Leaves[0], jobA.Leaves[len(jobA.Leaves)-1],
		jobB.Name, jobB.Leaves[0], jobB.Leaves[len(jobB.Leaves)-1], sched.Policy())

	// A top-level link fails under the tenants: the fabric patches
	// only the routes riding it and hot-swaps the generation.
	st, err := fab.FailLink(1, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failed link (1,0,0): generation %d patched %d routes\n", st.Seq, st.Patched)

	// One tenant departs; re-optimizing over the remaining mix lets
	// the pattern-aware candidate take the table if it helps.
	if err := sched.Release(jobA.ID); err != nil {
		log.Fatal(err)
	}
	res, ran, err := sched.Reoptimize(0)
	if err != nil {
		log.Fatal(err)
	}
	snap := sched.Snapshot()
	if ran && res.Swapped {
		fmt.Printf("released %s; re-optimized to %s (slowdown %.2f -> %.2f), %d/%d leaves free\n",
			jobA.Name, res.Best, res.Current, res.BestSlowdown, snap.Free, snap.Leaves)
	} else {
		fmt.Printf("released %s; kept %s (best %s %.2f vs current %.2f), %d/%d leaves free\n",
			jobA.Name, fab.Stats().Algo, res.Best, res.BestSlowdown, res.Current, snap.Free, snap.Leaves)
	}

	// The link is repaired and the traffic turns adversarial: every
	// leaf of switch 0 sends into one residue class mod w2 = 12, the
	// funnel d-mod-k squeezes through a single top-level port. The
	// resolves are the telemetry; one optimizer pass re-fits the table.
	if st, err = fab.Heal(); err != nil {
		log.Fatal(err)
	}
	fab.Telemetry().Reset()
	for s := 0; s < 16; s++ {
		if _, ok := fab.Resolve(s, 16+12*s); !ok {
			log.Fatalf("pair (%d,%d) did not resolve", s, 16+12*s)
		}
	}
	opt, err := fab.Optimize(repro.OptimizeConfig{Reset: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healed (generation %d, from the pinned table: %v); %d skewed pairs observed: %s (slowdown %.2f) -> %s (%.2f), swapped %v\n",
		st.Seq, st.CacheHit, opt.Pairs, st.Algo, opt.Current, opt.Best, opt.BestSlowdown, opt.Swapped)
}
