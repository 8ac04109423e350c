package fabric

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/trace"
	"repro/internal/xgft"
)

// packedBatchPairs builds a keyed-deterministic batch mixing normal,
// self and out-of-range pairs — every class of the per-pair rule.
func packedBatchPairs(n, count int, key uint64) [][2]int {
	st := hashutil.NewStream(0xbead, key)
	pairs := make([][2]int, count)
	for i := range pairs {
		switch st.Intn(8) {
		case 0:
			pairs[i] = [2]int{st.Intn(n), st.Intn(n)} // may be self
		case 1:
			pairs[i] = [2]int{n + st.Intn(5), st.Intn(n)} // out of range
		case 2:
			pairs[i] = [2]int{st.Intn(n), -1 - st.Intn(3)}
		default:
			s := st.Intn(n)
			pairs[i] = [2]int{s, (s + 1 + st.Intn(n-1)) % n}
		}
	}
	return pairs
}

// TestResolveBatchPackedTelemetry proves the packed hot path still
// feeds the flow counters: resolved non-self pairs count, self and
// unreachable pairs do not.
func TestResolveBatchPackedTelemetry(t *testing.T) {
	tp := xgft.MustNew(2, []int{4, 4}, []int{1, 4})
	f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 5}, {0, 5}, {2, 2}, {-1, 3}, {1, 7}}
	out := make([]uint64, len(pairs))
	resolved, gen := f.ResolveBatchPacked(pairs, out)
	if resolved != 4 || gen != 0 {
		t.Fatalf("resolved %d gen %d, want 4 gen 0", resolved, gen)
	}
	tel := f.Telemetry()
	if c := tel.Count(0, 5); c != 2 {
		t.Errorf("count(0,5) = %d, want 2", c)
	}
	if c := tel.Count(1, 7); c != 1 {
		t.Errorf("count(1,7) = %d, want 1", c)
	}
	if c := tel.Count(2, 2); c != 0 {
		t.Errorf("self pair counted: %d", c)
	}
	if total := tel.Total(); total != 3 {
		t.Errorf("total %d, want 3", total)
	}
}

// TestResolveBatchPackedZeroAllocs pins the wire-speed contract: the
// packed batch resolve allocates nothing, telemetry on or off.
func TestResolveBatchPackedZeroAllocs(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 8})
	for _, telemetry := range []bool{false, true} {
		f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: telemetry})
		if err != nil {
			t.Fatal(err)
		}
		n := tp.Leaves()
		pairs := make([][2]int, 256)
		h := uint64(7)
		for i := range pairs {
			h = hashutil.Splitmix64(h)
			pairs[i] = [2]int{int(h % uint64(n)), int(h >> 32 % uint64(n))}
		}
		out := make([]uint64, len(pairs))
		allocs := testing.AllocsPerRun(100, func() {
			f.ResolveBatchPacked(pairs, out)
		})
		if allocs != 0 {
			t.Errorf("telemetry=%v: %.1f allocs per packed batch, want 0", telemetry, allocs)
		}
	}
}

// wirePairs lays a batch out as a binary resolve request carries it: 8
// bytes a pair, big-endian uint32 src then dst. Endpoints must fit.
func wirePairs(pairs [][2]int) []byte {
	b := make([]byte, 0, 8*len(pairs))
	for _, p := range pairs {
		b = binary.BigEndian.AppendUint32(b, uint32(p[0]))
		b = binary.BigEndian.AppendUint32(b, uint32(p[1]))
	}
	return b
}

// TestResolveWireMatchesResolveBatchPacked holds the fused pass to its
// oracle on healthy and degraded generations: the same words in the
// same order behind whatever dst already held, the same resolved count
// and generation, the same telemetry, and nothing read from a trailing
// partial pair.
func TestResolveWireMatchesResolveBatchPacked(t *testing.T) {
	tp := xgft.MustNew(2, []int{8, 8}, []int{1, 4})
	mk := func() *Fabric {
		f, err := New(Config{Topo: tp, Algo: core.NewDModK(tp), Telemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fused, oracle := mk(), mk()
	n := tp.Leaves()
	check := func(t *testing.T, key uint64) {
		t.Helper()
		pairs := packedBatchPairs(n, 512, key)
		for i := range pairs { // the wire has no negative endpoints
			if pairs[i][1] < 0 {
				pairs[i][1] = n - pairs[i][1]
			}
		}
		want := make([]uint64, len(pairs))
		wantResolved, wantGen := oracle.ResolveBatchPacked(pairs, want)
		prefix := []byte("hdr")
		req := append(wirePairs(pairs), 0xAA, 0xBB, 0xCC) // 3 bytes of a pair that never arrived
		got, resolved, gen := fused.ResolveWire(trace.SpanContext{}, req, prefix)
		if resolved != wantResolved || gen != wantGen {
			t.Fatalf("resolved %d gen %d, want %d gen %d", resolved, gen, wantResolved, wantGen)
		}
		if string(got[:len(prefix)]) != "hdr" || len(got) != len(prefix)+8*len(pairs) {
			t.Fatalf("appended %d bytes behind %q, want %d behind %q", len(got)-len(prefix), got[:len(prefix)], 8*len(pairs), prefix)
		}
		for i := range want {
			if w := binary.BigEndian.Uint64(got[len(prefix)+8*i:]); w != want[i] {
				t.Fatalf("pair %v: fused word %#x, oracle %#x", pairs[i], w, want[i])
			}
		}
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if g, w := fused.Telemetry().Count(s, d), oracle.Telemetry().Count(s, d); g != w {
					t.Fatalf("telemetry(%d,%d) = %d fused, %d oracle", s, d, g, w)
				}
			}
		}
	}
	t.Run("healthy", func(t *testing.T) { check(t, 3) })
	for _, f := range []*Fabric{fused, oracle} {
		if _, err := f.FailLink(0, 3, 0); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("degraded", func(t *testing.T) { check(t, 4) })
	if out, resolved, _ := fused.ResolveWire(trace.SpanContext{}, nil, nil); len(out) != 0 || resolved != 0 {
		t.Errorf("empty batch appended %d bytes, resolved %d", len(out), resolved)
	}
}
