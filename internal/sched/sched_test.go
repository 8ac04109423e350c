package sched_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/evaluate"
	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/xgft"
)

// testFabric compiles a d-mod-k fabric on XGFT(2;8,8;1,w2).
func testFabric(t testing.TB, w2 int, telemetry bool) *fabric.Fabric {
	t.Helper()
	tp, err := xgft.NewSlimmedTree(8, 8, w2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.New(fabric.Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: telemetry})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newScheduler(t testing.TB, f *fabric.Fabric, policy string) *sched.Scheduler {
	t.Helper()
	p, err := sched.PolicyByName(policy)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sched.Config{Fabric: f, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// permSpec is a permutation job over n ranks.
func permSpec(name string, n int, seed uint64) sched.JobSpec {
	return sched.JobSpec{
		Name:   name,
		N:      n,
		Phases: []*pattern.Pattern{pattern.KeyedRandomPermutation(n, 1024, seed)},
	}
}

func TestSubmitReleaseSnapshot(t *testing.T) {
	s := newScheduler(t, testFabric(t, 8, false), "linear")
	a, err := s.Submit(permSpec("a", 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != 1 || a.N != 8 || a.Policy != "linear" {
		t.Fatalf("job a: %+v", a)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(a.Leaves, want) {
		t.Fatalf("linear leaves %v, want %v", a.Leaves, want)
	}
	b, err := s.Submit(permSpec("b", 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{8, 9, 10, 11, 12}; !reflect.DeepEqual(b.Leaves, want) {
		t.Fatalf("second linear job %v, want %v", b.Leaves, want)
	}
	snap := s.Snapshot()
	if snap.Leaves != 64 || snap.Free != 64-13 || len(snap.Jobs) != 2 {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap.Jobs[0].ID != 1 || snap.Jobs[1].ID != 2 {
		t.Fatalf("snapshot job order %+v", snap.Jobs)
	}
	if snap.FreeBlocks != 1 || snap.LargestFree != 64-13 || snap.Fragmentation != 0 {
		t.Fatalf("free census %+v", snap)
	}
	// Releasing the first job splits nothing (block merges left edge),
	// releasing the middle of three creates a hole.
	if err := s.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	snap = s.Snapshot()
	if snap.Free != 64-5 || snap.FreeBlocks != 2 || snap.LargestFree != 64-13 {
		t.Fatalf("after release: %+v", snap)
	}
	if snap.Fragmentation <= 0 {
		t.Fatalf("fragmented pool reports fragmentation %v", snap.Fragmentation)
	}
	if err := s.Release(a.ID); err == nil {
		t.Fatal("double release accepted")
	}
	if _, ok := s.Job(b.ID); !ok {
		t.Fatal("job b lost")
	}
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != b.ID {
		t.Fatalf("active jobs %v", jobs)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newScheduler(t, testFabric(t, 8, false), "linear")
	if _, err := s.Submit(sched.JobSpec{N: 0}); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := s.Submit(sched.JobSpec{N: 65}); err == nil {
		t.Error("oversized job accepted")
	}
	if _, err := s.Submit(sched.JobSpec{N: 4, Phases: []*pattern.Pattern{pattern.AllToAll(8, 1)}}); err == nil {
		t.Error("phase over the wrong rank count accepted")
	}
	bad := pattern.New(4)
	bad.Add(0, 9, 1)
	if _, err := s.Submit(sched.JobSpec{N: 4, Phases: []*pattern.Pattern{bad}}); err == nil {
		t.Error("invalid phase accepted")
	}
	if _, err := s.Submit(sched.JobSpec{N: 4, Phases: []*pattern.Pattern{nil}}); err == nil {
		t.Error("nil phase accepted")
	}
	// Fill the pool, then overflow it.
	if _, err := s.Submit(sched.JobSpec{Name: "fill", N: 64}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(sched.JobSpec{Name: "over", N: 1})
	if !errors.Is(err, sched.ErrNoCapacity) {
		t.Fatalf("overflow error %v, want ErrNoCapacity", err)
	}
}

func TestLinearFallbackWhenFragmented(t *testing.T) {
	s := newScheduler(t, testFabric(t, 8, false), "linear")
	// Alternate 4-leaf jobs, then release every other one: free pool
	// becomes 8 holes of 4, so a 6-leaf job cannot sit contiguously.
	var ids []uint64
	for i := 0; i < 16; i++ {
		j, err := s.Submit(permSpec("j", 4, uint64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for i := 0; i < 16; i += 2 {
		if err := s.Release(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	j, err := s.Submit(permSpec("frag", 6, 99))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 8, 9}; !reflect.DeepEqual(j.Leaves, want) {
		t.Fatalf("fallback leaves %v, want lowest free %v", j.Leaves, want)
	}
	if snap := s.Snapshot(); snap.Fragmentation == 0 {
		t.Fatalf("snapshot of a shattered pool: %+v", snap)
	}
}

func TestRandomPolicyDeterministicPerJobID(t *testing.T) {
	run := func() [][]int {
		s := newScheduler(t, testFabric(t, 8, false), "random")
		var got [][]int
		for i := 0; i < 4; i++ {
			j, err := s.Submit(permSpec("r", 6, uint64(i)+1))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, j.Leaves)
		}
		return got
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("random policy not reproducible:\n%v\nvs\n%v", a, b)
	}
	// Different job IDs draw different subsets (overwhelmingly).
	if reflect.DeepEqual(a[0], a[1]) && reflect.DeepEqual(a[1], a[2]) {
		t.Fatalf("random policy repeats allocations: %v", a)
	}
}

func TestBalancedPolicySpreadsAcrossSubtrees(t *testing.T) {
	s := newScheduler(t, testFabric(t, 8, false), "balanced")
	// 8 subtrees of 8 leaves. First job of 8 drains subtree 0 (tie ->
	// lowest), second drains subtree 1.
	a, err := s.Submit(permSpec("a", 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(a.Leaves, want) {
		t.Fatalf("first balanced job %v, want %v", a.Leaves, want)
	}
	b, err := s.Submit(permSpec("b", 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{8, 9, 10, 11, 12, 13, 14, 15}; !reflect.DeepEqual(b.Leaves, want) {
		t.Fatalf("second balanced job %v, want %v", b.Leaves, want)
	}
	// A 12-leaf job takes one whole free subtree plus the start of the
	// next (fewest subtrees, freest first).
	c, err := s.Submit(permSpec("c", 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27}; !reflect.DeepEqual(c.Leaves, want) {
		t.Fatalf("spanning balanced job %v, want %v", c.Leaves, want)
	}
}

// placementScore mirrors the telemetry policy's objective: the
// analytic slowdown of the background plus the job remapped onto the
// candidate leaves, under the fabric's installed routes.
func placementScore(t *testing.T, f *fabric.Fabric, bg, job *pattern.Pattern, leaves []int) float64 {
	t.Helper()
	tp := f.Topology()
	combined := pattern.New(tp.Leaves())
	combined.Flows = append(combined.Flows, bg.Flows...)
	for _, fl := range job.Flows {
		combined.Add(leaves[fl.Src], leaves[fl.Dst], fl.Bytes)
	}
	q := pattern.New(tp.Leaves())
	var routes []xgft.Route
	gen := f.Generation()
	for _, fl := range combined.Flows {
		if fl.Src == fl.Dst {
			continue
		}
		r, ok := gen.Resolve(fl.Src, fl.Dst)
		if !ok {
			t.Fatalf("pair (%d,%d) did not resolve", fl.Src, fl.Dst)
		}
		q.Add(fl.Src, fl.Dst, fl.Bytes)
		routes = append(routes, r)
	}
	res, err := evaluate.NewAnalytic(nil).ScoreRoutes(tp, q, routes)
	if err != nil {
		t.Fatal(err)
	}
	return res.Slowdown
}

// TestTelemetryPolicyNeverWorseThanItsCandidates pins the telemetry
// policy's contract: because its candidate set contains the linear
// and balanced proposals, its chosen allocation never scores worse
// than any other policy's choice on the identical request.
func TestTelemetryPolicyNeverWorseThanItsCandidates(t *testing.T) {
	f := testFabric(t, 2, false) // heavily slimmed: crossings are expensive
	s := newScheduler(t, f, "linear")
	// A busy tenant on leaves 10..49: its all-to-all is the
	// background the probe job must coexist with, and it fragments
	// the free pool into {0..9} and {50..63}.
	pad, err := s.Submit(sched.JobSpec{Name: "pad", N: 10})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := s.Submit(sched.JobSpec{
		Name:   "busy",
		N:      40,
		Phases: []*pattern.Pattern{pattern.AllToAll(40, 4096)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(pad.ID); err != nil {
		t.Fatal(err)
	}
	var free []int
	for l := 0; l < 10; l++ {
		free = append(free, l)
	}
	for l := 50; l < 64; l++ {
		free = append(free, l)
	}
	jobPat := pattern.KeyedRandomPermutation(8, 1024, 7)
	req := &sched.Request{
		Topo:       f.Topology(),
		Free:       free,
		N:          8,
		JobID:      3,
		Seed:       1,
		Pattern:    jobPat,
		Background: busy.LeafPattern(),
		Resolve:    f.Generation().Resolve,
	}
	scores := make(map[string]float64)
	for _, name := range sched.PolicyNames() {
		p, err := sched.PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		leaves, err := p.Place(req)
		if err != nil {
			t.Fatal(err)
		}
		scores[name] = placementScore(t, f, busy.LeafPattern(), jobPat, leaves)
	}
	for _, other := range []string{"linear", "random", "balanced"} {
		if scores["telemetry"] > scores[other]+1e-9 {
			t.Errorf("telemetry score %.4f worse than %s score %.4f (all: %v)",
				scores["telemetry"], other, scores[other], scores)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range sched.PolicyNames() {
		p, err := sched.PolicyByName(name)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
	if p, err := sched.PolicyByName(""); err != nil || p.Name() != "linear" {
		t.Errorf("empty name: %v, %v", p, err)
	}
	if _, err := sched.PolicyByName("greedy"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRemapPatternAndJobViews(t *testing.T) {
	s := newScheduler(t, testFabric(t, 8, false), "linear")
	ph := pattern.New(3)
	ph.Add(0, 1, 10)
	ph.Add(2, 0, 20)
	// Occupy the first two leaves so the job lands at 2,3,4.
	if _, err := s.Submit(sched.JobSpec{Name: "pad", N: 2}); err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(sched.JobSpec{Name: "m", N: 3, Phases: []*pattern.Pattern{ph}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 3, 4}; !reflect.DeepEqual(j.Mapping(), want) {
		t.Fatalf("mapping %v, want %v", j.Mapping(), want)
	}
	lp := j.LeafPhases()
	if len(lp) != 1 || lp[0].N != 64 {
		t.Fatalf("leaf phases %+v", lp)
	}
	want := []pattern.Flow{{Src: 2, Dst: 3, Bytes: 10}, {Src: 4, Dst: 2, Bytes: 20}}
	if !reflect.DeepEqual(lp[0].Flows, want) {
		t.Fatalf("remapped flows %v, want %v", lp[0].Flows, want)
	}
	if !reflect.DeepEqual(j.LeafPattern().Flows, want) {
		t.Fatalf("leaf pattern %v, want %v", j.LeafPattern().Flows, want)
	}
	// The tenant pattern is the union over active jobs in submission
	// order; the empty pad job contributes nothing.
	if got := s.TenantPattern().Flows; !reflect.DeepEqual(got, want) {
		t.Fatalf("tenant pattern %v, want %v", got, want)
	}
}

func TestReoptimizeRefitsToTenantPattern(t *testing.T) {
	// The d-mod-k funnel on a slimmed tree: every leaf of switch 0
	// sends to a distinct destination in one mod-w residue class, so
	// d-mod-k funnels all flows through one top link and the optimizer
	// must find a strictly better table.
	f := testFabric(t, 4, true)
	s := newScheduler(t, f, "linear")
	funnel := pattern.New(64)
	for r := 0; r < 8; r++ {
		funnel.Add(r, 8+r*4, 1)
	}
	j, err := s.Submit(sched.JobSpec{Name: "funnel", N: 64, Phases: []*pattern.Pattern{funnel}})
	if err != nil {
		t.Fatal(err)
	}
	res, ran, err := s.Reoptimize(0)
	if err != nil {
		t.Fatal(err)
	}
	if !ran || !res.Swapped {
		t.Fatalf("reoptimize did not swap: ran=%v %+v", ran, res)
	}
	if res.Current != 8 {
		t.Errorf("funnel slowdown under d-mod-k = %v, want 8", res.Current)
	}
	if f.Stats().Algo == "d-mod-k" {
		t.Errorf("fabric still serves d-mod-k after swap")
	}
	// Releasing the tenant and re-optimizing is a no-op pass: no
	// observed flows.
	if err := s.Release(j.ID); err != nil {
		t.Fatal(err)
	}
	res, ran, err = s.Reoptimize(0)
	if err != nil {
		t.Fatal(err)
	}
	if !ran || res.Swapped || res.Pairs != 0 {
		t.Fatalf("empty-tenant reoptimize: ran=%v %+v", ran, res)
	}
}

func TestReoptimizeWithoutTelemetry(t *testing.T) {
	s := newScheduler(t, testFabric(t, 8, false), "linear")
	if _, ran, err := s.Reoptimize(0); ran || err != nil {
		t.Fatalf("reoptimize on a telemetry-less fabric: ran=%v err=%v", ran, err)
	}
	if s.SyncTelemetry() {
		t.Fatal("SyncTelemetry reported success without telemetry")
	}
}

func TestSyncTelemetryMirrorsTenants(t *testing.T) {
	f := testFabric(t, 8, true)
	s := newScheduler(t, f, "linear")
	ph := pattern.New(2)
	ph.Add(0, 1, 3)
	if _, err := s.Submit(sched.JobSpec{Name: "t", N: 2, Phases: []*pattern.Pattern{ph}}); err != nil {
		t.Fatal(err)
	}
	// Stray observed traffic is replaced, not accumulated.
	f.Telemetry().Record(5, 6)
	if !s.SyncTelemetry() {
		t.Fatal("SyncTelemetry failed")
	}
	if got := f.Telemetry().Count(0, 1); got != 3 {
		t.Errorf("counter (0,1) = %d, want 3", got)
	}
	if got := f.Telemetry().Count(5, 6); got != 0 {
		t.Errorf("stray counter survived sync: %d", got)
	}
}

// TestSubmitReleaseRacingResolveBatch hammers the scheduler's
// Submit/Release/Reoptimize path while a resolver floods packed
// batch resolves, under -race: placement must never disturb the
// lock-free resolve path.
func TestSubmitReleaseRacingResolveBatch(t *testing.T) {
	f := testFabric(t, 4, true)
	s := newScheduler(t, f, "balanced")
	n := f.Topology().Leaves()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pairs := make([][2]int, 256)
			out := make([]uint64, len(pairs))
			for i := range pairs {
				pairs[i] = [2]int{(i + w) % n, (i * 7) % n}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, _ := f.ResolveBatchPacked(pairs, out); got != len(pairs) {
					// Healthy fabric: everything must resolve.
					t.Errorf("resolved %d/%d", got, len(pairs))
					return
				}
			}
		}(w)
	}
	// A second optimizer client: concurrent Reoptimize/SyncTelemetry
	// calls must serialize their Reset+Record rewrites instead of
	// interleaving them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.SyncTelemetry()
			if _, _, err := s.Reoptimize(0.5); err != nil {
				t.Errorf("concurrent reoptimize: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 30; i++ {
		j, err := s.Submit(permSpec("churn", 4+i%8, uint64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, _, err := s.Reoptimize(0.5); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Release(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestReoptimizeSeesOnlyTheTenantMix: Reoptimize rewrites the fabric's
// telemetry — Reset, then RecordN of the combined tenant pattern — so
// the pass scores what the placed jobs run, whatever was resolved
// before. Two schedulers walk the same submit/release schedule, three
// seeds; on one of them keyed batches are resolved before every step,
// counts that sit in the fabric's count shards until a reader folds
// them. Both must report the same OptimizeResult chain: Reset discards
// what the shards hold along with the matrix, and nothing a resolve
// counted leaks into the declared window.
func TestReoptimizeSeesOnlyTheTenantMix(t *testing.T) {
	for _, seed := range []uint64{3, 17, 4242} {
		quiet, noisy := testFabric(t, 4, true), testFabric(t, 4, true)
		sq, sn := newScheduler(t, quiet, "linear"), newScheduler(t, noisy, "linear")
		n := noisy.Topology().Leaves()
		step := 0
		stray := func() {
			pairs := make([][2]int, 48)
			for i := range pairs {
				h := hashutil.Mix(seed, uint64(step), uint64(i))
				pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
			}
			noisy.ResolveBatchPacked(pairs, make([]uint64, len(pairs)))
			step++
		}
		same := func(what string) {
			t.Helper()
			stray()
			want, _, err := sq.Reoptimize(0.05)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := sn.Reoptimize(0.05)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*fabric.OptimizeResult{&got, &want} {
				r.Stats.BuildTime, r.Stats.VerifyTime = 0, 0
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: with stray resolves the pass read\n%+v\nwithout\n%+v", seed, what, got, want)
			}
		}
		var ids []uint64
		for j := 0; j < 4; j++ {
			spec := permSpec("perm", 8+4*j, seed+uint64(j))
			stray()
			a, err := sq.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sn.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if a.ID != b.ID || !reflect.DeepEqual(a.Leaves, b.Leaves) {
				t.Fatalf("seed %d: job %d placed on %v and %v", seed, j, a.Leaves, b.Leaves)
			}
			ids = append(ids, a.ID)
			same("after a submit")
		}
		for _, id := range ids {
			stray()
			if err := sq.Release(id); err != nil {
				t.Fatal(err)
			}
			if err := sn.Release(id); err != nil {
				t.Fatal(err)
			}
			same("after a release")
		}
		if got := noisy.Telemetry().Total(); got != 0 {
			t.Errorf("seed %d: %d counts left after the last windowed pass", seed, got)
		}
	}
}
