package contention

import (
	"reflect"
	"testing"

	"repro/internal/contention/oracle"
	"repro/internal/hashutil"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// analyzeOracle is the census as it was before it went dense — the
// routes lowered by the oracle package's own walk (oracle.Lower) and a
// (channel, endpoint) hash set per direction for the group counts. It
// trusts its input (no validation) and survives only as the reference
// the flat-array census is checked against.
func analyzeOracle(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route) *Analysis {
	n, c := t.Leaves(), t.TotalChannels()
	a := &Analysis{
		Topo: t,
		Loads: Loads{
			UpBytes:     make([]int64, c),
			DownBytes:   make([]int64, c),
			InjectBytes: make([]int64, n),
			EjectBytes:  make([]int64, n),
		},
		UpFlows:    make([]int, c),
		DownFlows:  make([]int, c),
		UpGroups:   make([]int, c),
		DownGroups: make([]int, c),
		OutDegree:  make([]int, n),
		InDegree:   make([]int, n),
	}
	type groupKey struct{ ch, endpoint int }
	upSeen := make(map[groupKey]bool)
	downSeen := make(map[groupKey]bool)
	for i, f := range p.Flows {
		if f.Src == f.Dst {
			continue
		}
		a.InjectBytes[f.Src] += f.Bytes
		a.EjectBytes[f.Dst] += f.Bytes
		a.OutDegree[f.Src]++
		a.InDegree[f.Dst]++
		for _, c := range oracle.Lower(t, routes[i]) {
			ch := c.Wire
			if c.Up {
				a.UpBytes[ch] += f.Bytes
				a.UpFlows[ch]++
				if k := (groupKey{ch, f.Src}); !upSeen[k] {
					upSeen[k] = true
					a.UpGroups[ch]++
				}
			} else {
				a.DownBytes[ch] += f.Bytes
				a.DownFlows[ch]++
				if k := (groupKey{ch, f.Dst}); !downSeen[k] {
					downSeen[k] = true
					a.DownGroups[ch]++
				}
			}
		}
	}
	return a
}

// TestDenseCensusMatchesMapOracle is the census differential: on
// keyed-random patterns with self-flows, repeated pairs and endpoints
// revisited out of order (what defeats a naive last-endpoint stamp),
// routed through keyed-random NCAs on 2-level, 3-level and slimmed
// trees, every Analysis field and both group profiles equal the map
// oracle's.
func TestDenseCensusMatchesMapOracle(t *testing.T) {
	trees := []*xgft.Topology{
		xgft.MustNew(2, []int{4, 4}, []int{1, 4}),
		xgft.MustNew(2, []int{8, 8}, []int{1, 3}), // slimmed
		xgft.MustNew(3, []int{4, 3, 2}, []int{1, 2, 3}),
		xgft.MustNew(3, []int{3, 3, 3}, []int{1, 3, 2}), // slimmed at the top
	}
	for ti, tp := range trees {
		n := tp.Leaves()
		for trial := uint64(0); trial < 8; trial++ {
			key := hashutil.Mix(0xce5505, uint64(ti), trial)
			p := pattern.New(n)
			var routes []xgft.Route
			for i := uint64(0); i < 40+trial*25; i++ {
				src := int(hashutil.Mix(key, 1, i) % uint64(n))
				dst := int(hashutil.Mix(key, 2, i) % uint64(n))
				switch hashutil.Mix(key, 3, i) % 8 {
				case 0:
					dst = src // self-flow
				case 1:
					if len(p.Flows) > 0 { // repeat an earlier pair
						prev := p.Flows[hashutil.Mix(key, 4, i)%uint64(len(p.Flows))]
						src, dst = prev.Src, prev.Dst
					}
				}
				p.Add(src, dst, int64(hashutil.Mix(key, 5, i)%4096)+1)
				r := xgft.Route{Src: src, Dst: dst}
				for lv := 0; lv < tp.NCALevel(src, dst); lv++ {
					r.Up = append(r.Up, int(hashutil.Mix(key, 6, i, uint64(lv))%uint64(tp.W(lv))))
				}
				routes = append(routes, r)
			}
			got, err := Analyze(tp, p, routes)
			if err != nil {
				t.Fatalf("%v trial %d: %v", tp, trial, err)
			}
			want := analyzeOracle(tp, p, routes)
			gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
			for f := 0; f < gv.NumField(); f++ {
				if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
					t.Errorf("%v trial %d: %s differs:\ndense  %v\noracle %v", tp, trial,
						gv.Type().Field(f).Name, gv.Field(f).Interface(), wv.Field(f).Interface())
				}
			}
			for _, up := range []bool{true, false} {
				if g, w := got.GroupProfile(up), want.GroupProfile(up); !reflect.DeepEqual(g, w) {
					t.Errorf("%v trial %d: GroupProfile(%v) = %v, oracle %v", tp, trial, up, g, w)
				}
			}
			if got.MaxNetworkContention() < 2 {
				t.Errorf("%v trial %d: no channel shared between groups; the differential is not exercising the stamp", tp, trial)
			}
			l, err := ByteLoads(tp, p, routes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*l, want.Loads) {
				t.Errorf("%v trial %d: ByteLoads differs from the oracle's byte half", tp, trial)
			}
		}
	}
}
