package bench

import (
	"fmt"
	"strconv"

	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// Every input the daemons see is generated here from the run's seed
// through internal/hashutil keyed streams: the same seed gives the
// same pair streams, permutations, failed links and job mixes.

// Stream keys, one per kind of input.
const (
	keyBulk   = 0xb01c
	keySmall  = 0x5a11
	keyPerm   = 0x9e12
	keyUnif   = 0x0a1f
	keyLink   = 0x11c4
	keyJob    = 0x70b5
	keyProbe  = 0x920b
	keyArrive = 0xa221
)

// sizes fixes a run's topologies and input shapes. The smoke shape is
// the same code on a tiny tree.
type sizes struct {
	resolveSpec string // topology of the resolve daemons
	churnSpec   string // topology of the churn daemon (the paper's slimmed tree)
	algo        string

	batch     int       // pairs per bulk batch
	poolUnits int       // distinct pre-generated units cycled through
	openRate  float64   // bulk open-loop rate, batches/s
	ladder    []float64 // extra offered rates, traced run only
	sloUS     float64   // latency limit from due time

	framePairs int // pairs per small frame
	burst      int // frames per pipelined burst
	meshRows   int // WRF mesh the small frames draw from
	cgRanks    int // CG job the small frames draw from

	probeRate  float64 // churn probe stream, batches/s
	probePairs int
	jobSizes   []int

	sweepFigs  []string // analytic figure set
	sweepSeeds int
	simSeeds   int   // simulated slice (Fig. 2b)
	simBytes   int64 // its message size
}

// sweepArgs and simArgs are the experiments command lines of
// repro_sweep.
func (sz sizes) sweepArgs() []string {
	return append(append([]string(nil), sz.sweepFigs...), "-seeds", strconv.Itoa(sz.sweepSeeds), "-parallel", "2")
}

func (sz sizes) simArgs() []string {
	return []string{"-fig2b", "-engine", "simulated", "-seeds", strconv.Itoa(sz.simSeeds),
		"-bytes", strconv.FormatInt(sz.simBytes, 10), "-parallel", "2"}
}

func fullSizes() sizes {
	return sizes{
		resolveSpec: "2;16,16;1,16", churnSpec: "2;16,16;1,10", algo: "d-mod-k",
		batch: 4096, poolUnits: 64, openRate: 2000, ladder: []float64{1000, 3000, 4000}, sloUS: 2000,
		framePairs: 16, burst: 64, meshRows: 16, cgRanks: 128,
		probeRate: 200, probePairs: 256, jobSizes: []int{16, 32, 64},
		sweepFigs:  []string{"-fig2a", "-fig2b", "-fig5a", "-fig5b", "-fig3", "-fig4a", "-fig4b", "-table1"},
		sweepSeeds: 60, simSeeds: 2, simBytes: 32768,
	}
}

func smokeSizes() sizes {
	return sizes{
		resolveSpec: "2;8,8;1,4", churnSpec: "2;8,8;1,4", algo: "d-mod-k",
		batch: 512, poolUnits: 16, openRate: 500, ladder: []float64{250, 1000}, sloUS: 2000,
		framePairs: 16, burst: 16, meshRows: 4, cgRanks: 32,
		probeRate: 100, probePairs: 64, jobSizes: []int{16, 32},
		sweepFigs:  []string{"-fig2a", "-fig5b", "-fig3", "-fig4b", "-table1"},
		sweepSeeds: 2, simSeeds: 2, simBytes: 2048,
	}
}

// bulkUnits draws the bulk pool: units of batch pairs, each pair
// uniform over all ordered non-self pairs, so the whole table and the
// whole flow matrix are the working set.
func bulkUnits(tp *xgft.Topology, sz sizes, seed uint64) [][][2]int {
	n := tp.Leaves()
	units := make([][][2]int, sz.poolUnits)
	for u := range units {
		st := hashutil.NewStream(keyBulk, seed, uint64(u))
		pairs := make([][2]int, sz.batch)
		for i := range pairs {
			s := st.Intn(n)
			d := st.Intn(n - 1)
			if d >= s {
				d++
			}
			pairs[i] = [2]int{s, d}
		}
		units[u] = pairs
	}
	return units
}

// hotFlows lists the pairs the small frames draw from: the flows of a
// WRF mesh and of a CG job, a hot few hundred table rows.
func hotFlows(tp *xgft.Topology, sz sizes) ([][2]int, error) {
	var flows [][2]int
	add := func(p *pattern.Pattern) {
		for _, f := range p.Flows {
			if f.Src != f.Dst && f.Src < tp.Leaves() && f.Dst < tp.Leaves() {
				flows = append(flows, [2]int{f.Src, f.Dst})
			}
		}
	}
	add(pattern.WRF(sz.meshRows, tp.Leaves()/sz.meshRows, 1))
	cg, err := pattern.CGPhases(sz.cgRanks, 1)
	if err != nil {
		return nil, fmt.Errorf("bench: CG phases for %d ranks: %w", sz.cgRanks, err)
	}
	for _, ph := range cg {
		add(ph)
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("bench: no hot flows on %s", tp)
	}
	return flows, nil
}

// smallUnits draws the small pool: bursts of burst frames, each frame
// framePairs pairs from the hot flows.
func smallUnits(tp *xgft.Topology, sz sizes, seed uint64) ([][][][2]int, error) {
	hot, err := hotFlows(tp, sz)
	if err != nil {
		return nil, err
	}
	units := make([][][][2]int, sz.poolUnits)
	for u := range units {
		st := hashutil.NewStream(keySmall, seed, uint64(u))
		frames := make([][][2]int, sz.burst)
		for f := range frames {
			pairs := make([][2]int, sz.framePairs)
			for i := range pairs {
				pairs[i] = hot[st.Intn(len(hot))]
			}
			frames[f] = pairs
		}
		units[u] = frames
	}
	return units, nil
}

// cycleInput is everything one churn control cycle does, as a pure
// function of (seed, cycle index).
type cycleInput struct {
	Index   int
	Kind    string   // permutation, uniform or bit-reversal
	Feed    [][2]int // the cycle's traffic pattern as resolve pairs
	Level   int      // failed link: top level
	Switch  int      // failed link: switch index at that level
	Port    int      // failed link: up-port
	JobN    int      // job size
	JobApp  string   // job application profile
	JobSeed uint64   // job pattern seed (perm)
	Probe   [][2]int // verifying probe batch on the control connection
}

// churnCycle generates cycle c.
func churnCycle(tp *xgft.Topology, sz sizes, seed uint64, c int) (cycleInput, error) {
	n := tp.Leaves()
	in := cycleInput{Index: c}
	var p *pattern.Pattern
	switch c % 3 {
	case 0:
		in.Kind = "permutation"
		p = pattern.KeyedRandomPermutation(n, 1, hashutil.Mix(keyPerm, seed, uint64(c)))
	case 1:
		in.Kind = "uniform"
		p = pattern.UniformRandom(n, 4, 1, hashutil.Mix(keyUnif, seed, uint64(c)))
	default:
		in.Kind = "bit-reversal"
		br, err := pattern.BitReversal(n, 1)
		if err != nil {
			return in, err
		}
		p = br
	}
	for _, f := range p.Flows {
		if f.Src != f.Dst {
			in.Feed = append(in.Feed, [2]int{f.Src, f.Dst})
		}
	}
	st := hashutil.NewStream(keyLink, seed, uint64(c))
	in.Level = tp.Height() - 1
	in.Switch = st.Intn(tp.NodesAt(in.Level))
	in.Port = st.Intn(tp.W(in.Level))
	js := hashutil.NewStream(keyJob, seed, uint64(c))
	in.JobN = sz.jobSizes[js.Intn(len(sz.jobSizes))]
	apps := []string{"wrf", "cg", "perm"}
	in.JobApp = apps[js.Intn(len(apps))]
	if in.JobApp == "wrf" && in.JobN < 32 {
		in.JobApp = "perm" // fabricd's wrf profile needs at least two mesh rows
	}
	in.JobSeed = js.Next() % 1000
	ps := hashutil.NewStream(keyProbe, seed, uint64(c))
	in.Probe = make([][2]int, sz.probePairs)
	for i := range in.Probe {
		s := ps.Intn(n)
		d := ps.Intn(n - 1)
		if d >= s {
			d++
		}
		in.Probe[i] = [2]int{s, d}
	}
	return in, nil
}

// selfProbe is the open-loop probe batch of churn_mixed: self pairs,
// which the store answers with the empty route and telemetry does not
// count. The stream's batch count depends on wall-clock time, so
// anything it added to the flow counters would leak timing into what
// Optimize observes and the cycle's decisions would stop being a
// function of the seed.
func selfProbe(tp *xgft.Topology, sz sizes) [][2]int {
	pairs := make([][2]int, sz.probePairs)
	for i := range pairs {
		pairs[i] = [2]int{i % tp.Leaves(), i % tp.Leaves()}
	}
	return pairs
}
