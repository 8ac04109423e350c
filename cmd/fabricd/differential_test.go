package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/hashutil"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xgft"
)

// startWire serves the binary protocol for a fabric on a loopback
// port and returns a connected client.
func startWire(t *testing.T, f *fabric.Fabric) *wire.Client {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Resolver: f}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	c, err := wire.Dial(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// httpResolve resolves one pair over the HTTP front door, returning
// the up-ports, serving generation and whether the pair resolved
// (404 = unreachable).
func httpResolve(t *testing.T, base string, src, dst int) (up []int, generation uint64, ok bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/resolve?src=%d&dst=%d", base, src, dst))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Up         []int   `json:"up"`
		Generation uint64  `json:"generation"`
		Error      *string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET /resolve?src=%d&dst=%d: %v", src, dst, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body.Up, body.Generation, true
	case http.StatusNotFound:
		return nil, 0, false
	default:
		t.Fatalf("GET /resolve?src=%d&dst=%d: status %d", src, dst, resp.StatusCode)
		return nil, 0, false
	}
}

// diffPairs builds a keyed batch mixing normal, self and (for the
// binary path) out-of-range pairs.
func diffPairs(n, count int, key uint64, outOfRange bool) [][2]int {
	st := hashutil.NewStream(0xd1ff, key)
	pairs := make([][2]int, count)
	for i := range pairs {
		switch {
		case outOfRange && st.Intn(16) == 0:
			pairs[i] = [2]int{n + st.Intn(9), st.Intn(n)}
		case st.Intn(16) == 1:
			s := st.Intn(n)
			pairs[i] = [2]int{s, s}
		default:
			pairs[i] = [2]int{st.Intn(n), st.Intn(n)}
		}
	}
	return pairs
}

// TestDifferentialResolvePaths proves the three resolve paths serve
// the same table: for keyed-random batches, the binary protocol's
// packed words are byte-identical to in-process ResolveBatchPacked,
// decoded client-side they are the routes in-process Resolve returns,
// and the HTTP /resolve answers agree pair by pair — on the healthy
// generation and again on a degraded one with real unreachable pairs.
func TestDifferentialResolvePaths(t *testing.T) {
	d, err := build(options{spec: "2;8,8;1,4", algo: "d-mod-k", policy: "linear", evaluator: "analytic", seed: 1, telemetry: true, journalCap: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := d.f
	wc := startWire(t, f)
	hs := httptest.NewServer(newMux(d, 0, false))
	defer hs.Close()
	n := f.Topology().Leaves()

	check := func(t *testing.T, key uint64) {
		t.Helper()
		gen := f.Generation()
		pairs := diffPairs(n, 512, key, true)

		// Binary vs in-process: packed words byte-identical.
		wantPacked := make([]uint64, len(pairs))
		gen.ResolveBatchPacked(pairs, wantPacked)
		gotGen, gotPacked, err := wc.ResolveBatchPacked(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if gotGen != gen.Seq() {
			t.Fatalf("wire generation %d, in-process %d", gotGen, gen.Seq())
		}
		for i := range pairs {
			if gotPacked[i] != wantPacked[i] {
				t.Fatalf("pair %v: wire packed %#x, in-process %#x", pairs[i], gotPacked[i], wantPacked[i])
			}
		}

		// Binary words decoded client-side vs in-process decoded routes.
		for i, p := range pairs {
			want, ok := gen.Resolve(p[0], p[1])
			if ok != (gotPacked[i] != wire.Unreachable) {
				t.Fatalf("pair %v: wire word %#x, in-process resolves %v", p, gotPacked[i], ok)
			}
			if up := fabric.AppendPackedUp(gotPacked[i], nil); ok && fmt.Sprint(up) != fmt.Sprint(want.Up) {
				t.Fatalf("pair %v: wire ascent %v, in-process %v", p, up, want.Up)
			}
		}

		// HTTP vs in-process, on an in-range subset (the HTTP handler
		// rejects out-of-range pairs with 400 by design).
		for _, p := range diffPairs(n, 48, key+100, false) {
			up, hgen, ok := httpResolve(t, hs.URL, p[0], p[1])
			r, wantOK := gen.Resolve(p[0], p[1])
			if ok != wantOK {
				t.Fatalf("pair %v: HTTP ok %v, in-process %v", p, ok, wantOK)
			}
			if !ok {
				continue
			}
			if hgen != gen.Seq() {
				t.Fatalf("pair %v: HTTP generation %d, in-process %d", p, hgen, gen.Seq())
			}
			if len(up) != len(r.Up) {
				t.Fatalf("pair %v: HTTP up %v, in-process %v", p, up, r.Up)
			}
			for j := range up {
				if up[j] != r.Up[j] {
					t.Fatalf("pair %v: HTTP up %v, in-process %v", p, up, r.Up)
				}
			}
		}
	}

	t.Run("healthy", func(t *testing.T) { check(t, 1) })

	// Isolate leaf 5 (its only level-0 up wire) so the degraded
	// generation has genuinely unreachable pairs on every path.
	if _, err := f.FailLink(0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Resolve(5, 9); ok {
		t.Fatal("leaf 5 still reachable after fault")
	}
	t.Run("fault-view", func(t *testing.T) { check(t, 2) })
}

// TestDifferentialUnderGenerationSwaps hammers the binary path while
// Optimize passes and fault/heal cycles hot-swap generations
// underneath it (run under -race in CI). Every response must be
// internally consistent: tagged with a generation that existed, and
// when no swap happened around the request, byte-identical to the
// in-process packed resolve of that exact generation.
func TestDifferentialUnderGenerationSwaps(t *testing.T) {
	d, err := build(options{spec: "2;8,8;1,4", algo: "d-mod-k", policy: "linear", evaluator: "analytic", seed: 1, telemetry: true, journalCap: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := d.f
	n := f.Topology().Leaves()

	// Seed skewed telemetry so Optimize has something to chew on.
	st := hashutil.NewStream(0xa7, 3)
	for i := 0; i < 512; i++ {
		f.Resolve(st.Intn(8), 8+st.Intn(n-8))
	}

	wc := startWire(t, f)

	// Phase 1 — no churn yet: every batch must match the pinned
	// generation byte for byte, so the exact-equality arm is exercised
	// deterministically rather than depending on winning a race below.
	for bi := 0; bi < 50; bi++ {
		pairs := diffPairs(n, 128, uint64(1000+bi), true)
		gen := f.Generation()
		gotGen, packed, err := wc.ResolveBatchPacked(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if gotGen != gen.Seq() {
			t.Fatalf("quiescent batch %d: wire generation %d, pinned %d", bi, gotGen, gen.Seq())
		}
		want := make([]uint64, len(pairs))
		gen.ResolveBatchPacked(pairs, want)
		for i := range pairs {
			if packed[i] != want[i] {
				t.Fatalf("quiescent batch %d pair %v: wire %#x, in-process %#x", bi, pairs[i], packed[i], want[i])
			}
		}
	}

	// Phase 2 — live churn underneath the same connection.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	var swaps atomic.Int64
	churn.Add(2)
	go func() { // Optimize churn: threshold 0 swaps on any improvement
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if res, err := f.Optimize(fabric.OptimizeConfig{Threshold: 0}); err == nil && res.Swapped {
				swaps.Add(1)
			}
		}
	}()
	go func() { // fault/heal churn: guaranteed generation swaps
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.FailLink(1, i%8, i%4); err == nil {
				swaps.Add(1)
			}
			if _, err := f.Heal(); err == nil {
				swaps.Add(1)
			}
		}
	}()

	exact, raced := 0, 0
	for bi := 0; bi < 200; bi++ {
		pairs := diffPairs(n, 128, uint64(bi), true)
		before := f.Generation()
		gotGen, packed, err := wc.ResolveBatchPacked(pairs)
		if err != nil {
			t.Fatal(err)
		}
		after := f.Generation()
		if before.Seq() == after.Seq() {
			// Quiescent window: the response must be exactly that
			// generation's table.
			if gotGen != before.Seq() {
				t.Fatalf("batch %d: wire generation %d, pinned %d", bi, gotGen, before.Seq())
			}
			want := make([]uint64, len(pairs))
			before.ResolveBatchPacked(pairs, want)
			for i := range pairs {
				if packed[i] != want[i] {
					t.Fatalf("batch %d pair %v: wire %#x, in-process %#x", bi, pairs[i], packed[i], want[i])
				}
			}
			exact++
			continue
		}
		// A swap raced the request: the batch must still be a
		// consistent table — generation in the observed window and
		// every word a well-formed route of the topology.
		raced++
		if gotGen < before.Seq() || gotGen > after.Seq() {
			t.Fatalf("batch %d: wire generation %d outside window [%d,%d]", bi, gotGen, before.Seq(), after.Seq())
		}
		for i, p := range pairs {
			if packed[i] == wire.Unreachable {
				continue
			}
			src, dst := p[0], p[1]
			if src == dst && packed[i] == 0 {
				continue
			}
			r := xgft.Route{Src: src, Dst: dst, Up: fabric.AppendPackedUp(packed[i], nil)}
			if !r.VerifyConnects(f.Topology()) {
				t.Fatalf("batch %d pair %v: packed %#x decodes to a route that does not connect", bi, p, packed[i])
			}
		}
	}
	close(stop)
	churn.Wait()
	t.Logf("200 churned batches: %d exact-match windows, %d raced swaps (%d total swaps)", exact, raced, swaps.Load())
	if swaps.Load() == 0 {
		t.Error("churn produced no generation swaps; raced arm untested")
	}
}

// TestDifferentialTracedProtocol proves the wire protocol's trace
// extension changes observability, not answers: on a tracer-enabled
// server, the traced (v2) and untraced (v1) request variants on the
// same connection return byte-identical generations and packed route
// payloads, and the traced response's timing trailer is coherent.
func TestDifferentialTracedProtocol(t *testing.T) {
	d := tracedDaemon(t, "", 0)
	f := d.f
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Resolver: f, Metrics: d.reg, Tracer: d.tracer}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	wc, err := wire.Dial(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	n := f.Topology().Leaves()

	for key := uint64(1); key <= 3; key++ {
		pairs := diffPairs(n, 256, key, true)
		gen, packed, err := wc.ResolveBatchPacked(pairs)
		if err != nil {
			t.Fatal(err)
		}
		tc := wire.TraceContext{TraceHi: key, TraceLo: key + 1, SpanID: key + 2, Flags: 1}
		tgen, tpacked, tm, err := wc.ResolveBatchPackedTraced(tc, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if tgen != gen {
			t.Fatalf("key %d: traced generation %d, untraced %d", key, tgen, gen)
		}
		for i := range pairs {
			if tpacked[i] != packed[i] {
				t.Fatalf("key %d pair %v: traced %#x, untraced %#x", key, pairs[i], tpacked[i], packed[i])
			}
		}
		if tm.TotalNS <= 0 {
			t.Fatalf("key %d: timing trailer total %d, want > 0", key, tm.TotalNS)
		}
		if sum := tm.DecodeNS + tm.ResolveNS + tm.EncodeNS; sum > tm.TotalNS {
			t.Fatalf("key %d: stage sum %d exceeds total %d", key, sum, tm.TotalNS)
		}
	}
}

// resolveForm is one way to ask the store for routes, reduced to the
// shape the rule test drives: a batch in, one packed word per admitted
// pair out.
type resolveForm struct {
	name string
	// counted: the form goes through the fabric's instruments and
	// telemetry (lookups on a pinned Generation do not). perPair: it is
	// one call — one batch of one — per pair.
	counted, perPair bool
	// admits reports whether the form's encoding can carry the pair at
	// all; refuse asserts that a pair it cannot carry is turned away.
	admits func(p [2]int) bool
	refuse func(t *testing.T, p [2]int)
	// run resolves the admitted pairs. generation is -1 for forms that
	// do not report one.
	run func(t *testing.T, pairs [][2]int) (words []uint64, resolved int, generation int64)
}

// packUp is the test's own copy of the packed encoding (NCA level in
// the top byte, one ascent digit per byte below it), so decoded forms
// can be held to the same word as packed ones.
func packUp(up []int) uint64 {
	w := uint64(len(up)) << 56
	for i, p := range up {
		w |= uint64(p) << (8 * uint(i))
	}
	return w
}

// TestResolveRuleEveryForm sends one probe set — reachable, self,
// negative, just past the leaves, past MaxInt32, unreachable under a
// failed switch — through every resolve form, on three generations
// (healthy, switch (1,0) failed, healed), and holds each form to the one
// per-pair rule: the same word as an oracle decoded from
// Generation.Routes, the same resolved count, and, for the forms the
// fabric counts, the same moves of fabric_resolves_total,
// fabric_unresolved_total, fabric_routes_served,
// fabric_resolve_batches_total and the telemetry cells. The two packed
// forms do it in zero allocations.
func TestResolveRuleEveryForm(t *testing.T) {
	d, err := build(options{spec: "2;8,8;1,4", algo: "d-mod-k", policy: "linear", evaluator: "analytic", seed: 1, telemetry: true, journalCap: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := d.f
	wc := startWire(t, f)
	hs := httptest.NewServer(newMux(d, 0, false))
	defer hs.Close()
	n := f.Topology().Leaves()
	inRange := func(p [2]int) bool { return p[0] >= 0 && p[0] < n && p[1] >= 0 && p[1] < n }
	onWire := func(p [2]int) bool {
		return p[0] >= 0 && p[0] <= wire.MaxEndpoint && p[1] >= 0 && p[1] <= wire.MaxEndpoint
	}
	wireBytes := func(pairs [][2]int) []byte {
		b := make([]byte, 0, 8*len(pairs))
		for _, p := range pairs {
			b = binary.BigEndian.AppendUint32(b, uint32(p[0]))
			b = binary.BigEndian.AppendUint32(b, uint32(p[1]))
		}
		return b
	}

	probes := [][2]int{
		{9, 20},         // reachable on every generation
		{0, 9}, {17, 3}, // an endpoint under switch (1,0): unreachable while it is failed
		{3, 3},           // self
		{-1, 3}, {4, -7}, // negative
		{1, n}, {n + 5, 1}, // just past the leaves
		{math.MaxInt32 + 8, 2}, // past MaxInt32: must not wrap into range on the wire
		{2, wire.MaxEndpoint},  // the largest endpoint a frame can carry
	}
	forms := []resolveForm{
		{name: "Generation.Resolve", run: func(t *testing.T, pairs [][2]int) ([]uint64, int, int64) {
			words, resolved := make([]uint64, len(pairs)), 0
			for i, p := range pairs {
				words[i] = fabric.PackedUnreachable
				if r, ok := f.Generation().Resolve(p[0], p[1]); ok {
					words[i] = packUp(r.Up)
					resolved++
				}
			}
			return words, resolved, -1
		}},
		{name: "Generation.ResolveBatchPacked", run: func(t *testing.T, pairs [][2]int) ([]uint64, int, int64) {
			words := make([]uint64, len(pairs))
			return words, f.Generation().ResolveBatchPacked(pairs, words), -1
		}},
		{name: "Fabric.Resolve", counted: true, perPair: true, run: func(t *testing.T, pairs [][2]int) ([]uint64, int, int64) {
			words, resolved := make([]uint64, len(pairs)), 0
			for i, p := range pairs {
				words[i] = fabric.PackedUnreachable
				if r, ok := f.Resolve(p[0], p[1]); ok {
					words[i] = packUp(r.Up)
					resolved++
				}
			}
			return words, resolved, -1
		}},
		{name: "Fabric.ResolveBatchPacked", counted: true, run: func(t *testing.T, pairs [][2]int) ([]uint64, int, int64) {
			words := make([]uint64, len(pairs))
			resolved, gen := f.ResolveBatchPacked(pairs, words)
			return words, resolved, int64(gen)
		}},
		{name: "Fabric.ResolveWire", counted: true, admits: onWire, run: func(t *testing.T, pairs [][2]int) ([]uint64, int, int64) {
			out, resolved, gen := f.ResolveWire(trace.SpanContext{}, wireBytes(pairs), nil)
			words := make([]uint64, len(pairs))
			for i := range words {
				words[i] = binary.BigEndian.Uint64(out[8*i:])
			}
			return words, resolved, int64(gen)
		}},
		{name: "wire.Client.ResolveBatchPacked", counted: true, admits: onWire,
			refuse: func(t *testing.T, p [2]int) {
				if _, _, err := wc.ResolveBatchPacked([][2]int{p}); err == nil {
					t.Errorf("pair %v: the client encoded an endpoint a frame cannot carry", p)
				}
			},
			run: func(t *testing.T, pairs [][2]int) ([]uint64, int, int64) {
				gen, words, err := wc.ResolveBatchPacked(pairs)
				if err != nil {
					t.Fatal(err)
				}
				resolved := 0
				for _, w := range words {
					if w != wire.Unreachable {
						resolved++
					}
				}
				return words, resolved, int64(gen)
			}},
		{name: "GET /resolve", counted: true, perPair: true, admits: inRange,
			refuse: func(t *testing.T, p [2]int) {
				resp, err := http.Get(fmt.Sprintf("%s/resolve?src=%d&dst=%d", hs.URL, p[0], p[1]))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("GET /resolve for pair %v: status %d, want 400", p, resp.StatusCode)
				}
			},
			run: func(t *testing.T, pairs [][2]int) ([]uint64, int, int64) {
				words, resolved, generation := make([]uint64, len(pairs)), 0, int64(-1)
				for i, p := range pairs {
					words[i] = fabric.PackedUnreachable
					if up, gen, ok := httpResolve(t, hs.URL, p[0], p[1]); ok {
						words[i] = packUp(up)
						resolved++
						generation = int64(gen)
					}
				}
				return words, resolved, generation
			}},
	}

	metrics := []string{"fabric_resolves_total", "fabric_unresolved_total", "fabric_routes_served", "fabric_resolve_batches_total"}
	stage := func(t *testing.T, seq int64) {
		// The oracle: out of range is unreachable, self is the empty
		// route, anything else is what the installed table says.
		table := map[[2]int]uint64{}
		for _, r := range f.Generation().Routes() {
			table[[2]int{r.Src, r.Dst}] = packUp(r.Up)
		}
		want := func(p [2]int) uint64 {
			if w, ok := table[p]; ok || (inRange(p) && p[0] == p[1]) {
				return w
			}
			return fabric.PackedUnreachable
		}
		for _, form := range forms {
			var admitted, refused [][2]int
			for _, p := range probes {
				if form.admits == nil || form.admits(p) {
					admitted = append(admitted, p)
				} else {
					refused = append(refused, p)
				}
			}
			wantResolved, wantMisses := 0, 0
			wantCells := map[[2]int]uint64{}
			for _, p := range admitted {
				switch want(p) {
				case fabric.PackedUnreachable:
					wantMisses++
				case 0:
					wantResolved++
				default:
					wantResolved++
					wantCells[p]++
				}
			}
			// What the instruments should move by, in the order of
			// metrics: nothing at all for a form the fabric does not count.
			var wantMoves [4]float64
			if form.counted {
				calls := 1
				if form.perPair {
					calls = len(admitted)
				}
				wantMoves = [4]float64{float64(wantResolved), float64(wantMisses), float64(wantResolved), float64(calls)}
			} else {
				wantCells = nil
			}
			cells := func() map[[2]int]uint64 {
				out := map[[2]int]uint64{}
				for _, p := range probes {
					if inRange(p) {
						out[p] = f.Telemetry().Count(p[0], p[1])
					}
				}
				return out
			}

			before, cellsBefore := d.reg.Snapshot(), cells()
			if form.refuse != nil {
				for _, p := range refused {
					form.refuse(t, p)
				}
			}
			words, resolved, generation := form.run(t, admitted)
			after, cellsAfter := d.reg.Snapshot(), cells()

			if resolved != wantResolved {
				t.Errorf("%s: resolved %d of %v, want %d", form.name, resolved, admitted, wantResolved)
			}
			if generation >= 0 && generation != seq {
				t.Errorf("%s: tagged generation %d, serving %d", form.name, generation, seq)
			}
			for i, p := range admitted {
				if words[i] != want(p) {
					t.Errorf("%s: pair %v resolved to %#x, want %#x", form.name, p, words[i], want(p))
				}
			}
			for i, name := range metrics {
				if got := after[name] - before[name]; got != wantMoves[i] {
					t.Errorf("%s: %s moved by %v, want %v", form.name, name, got, wantMoves[i])
				}
			}
			for p, was := range cellsBefore {
				if got := cellsAfter[p] - was; got != wantCells[p] {
					t.Errorf("%s: telemetry cell %v moved by %d, want %d", form.name, p, got, wantCells[p])
				}
			}
		}
	}

	t.Run("healthy", func(t *testing.T) { stage(t, 0) })
	if _, err := f.FailSwitch(1, 0); err != nil {
		t.Fatal(err)
	}
	t.Run("switch failed", func(t *testing.T) { stage(t, 1) })
	if _, err := f.Heal(); err != nil {
		t.Fatal(err)
	}
	t.Run("healed", func(t *testing.T) { stage(t, 2) })

	words, req := make([]uint64, len(probes)), wireBytes(probes[:4])
	dst := make([]byte, 0, len(req))
	if avg := testing.AllocsPerRun(50, func() { f.ResolveBatchPacked(probes, words) }); avg != 0 {
		t.Errorf("Fabric.ResolveBatchPacked allocates %v per batch, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { f.ResolveWire(trace.SpanContext{}, req, dst) }); avg != 0 {
		t.Errorf("Fabric.ResolveWire allocates %v per batch, want 0", avg)
	}
}
