package dimemas

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/venus"
	"repro/internal/xgft"
)

func roundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCodecRoundTripAllOps(t *testing.T) {
	tr := &Trace{Ranks: [][]Op{
		{
			Compute{Dur: 1234},
			Send{Dst: 1, Bytes: 1024, Tag: 3},
			ISend{Dst: 1, Bytes: 2048, Tag: 4, Req: 9},
			Recv{Src: 1, Tag: 5},
			Wait{Req: 9},
			WaitAll{},
			Barrier{},
		},
		{
			Recv{Src: 0, Tag: 3},
			Recv{Src: 0, Tag: 4},
			Send{Dst: 0, Bytes: 512, Tag: 5},
			Barrier{},
		},
	}}
	got := roundTrip(t, tr)
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip changed trace:\n got %#v\nwant %#v", got, tr)
	}
}

func TestCodecRoundTripAnySource(t *testing.T) {
	tr := &Trace{Ranks: [][]Op{
		{Recv{Src: AnySource, Tag: 0}},
		{Send{Dst: 0, Bytes: 64, Tag: 0}},
	}}
	got := roundTrip(t, tr)
	if got.Ranks[0][0].(Recv).Src != AnySource {
		t.Error("AnySource not preserved")
	}
}

func TestCodecRejectsInvalidTraceOnWrite(t *testing.T) {
	bad := &Trace{Ranks: [][]Op{{Send{Dst: 99, Bytes: 1}}}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, bad); err == nil {
		t.Error("invalid trace written")
	}
}

func TestCodecReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"wrong format":    `{"format":"nope","version":1,"ranks":1}`,
		"wrong version":   `{"format":"xgft-trace","version":9,"ranks":1}`,
		"zero ranks":      `{"format":"xgft-trace","version":1,"ranks":0}`,
		"rank overflow":   `{"format":"xgft-trace","version":1,"ranks":1}` + "\n" + `{"rank":5,"op":"barrier"}`,
		"unknown op":      `{"format":"xgft-trace","version":1,"ranks":1}` + "\n" + `{"rank":0,"op":"frobnicate"}`,
		"missing field":   `{"format":"xgft-trace","version":1,"ranks":1}` + "\n" + `{"rank":0,"op":"send","bytes":10}`,
		"missing bytes":   `{"format":"xgft-trace","version":1,"ranks":1}` + "\n" + `{"rank":0,"op":"send","dst":0}`,
		"missing src":     `{"format":"xgft-trace","version":1,"ranks":1}` + "\n" + `{"rank":0,"op":"recv"}`,
		"missing req":     `{"format":"xgft-trace","version":1,"ranks":1}` + "\n" + `{"rank":0,"op":"wait"}`,
		"missing dur":     `{"format":"xgft-trace","version":1,"ranks":1}` + "\n" + `{"rank":0,"op":"compute"}`,
		"invalid content": `{"format":"xgft-trace","version":1,"ranks":1}` + "\n" + `{"rank":0,"op":"send","dst":7,"bytes":10}`,
		"garbage line":    `{"format":"xgft-trace","version":1,"ranks":1}` + "\n" + `not json`,
		// A header's rank count is bounded before anything is allocated:
		// 2^62 ranks used to panic in makeslice, and smaller huge counts
		// allocated 24 bytes a rank before the first line was read.
		"2^62 ranks":     `{"format":"xgft-trace","version":1,"ranks":4611686018427387904}`,
		"too many ranks": `{"format":"xgft-trace","version":1,"ranks":1048577}`,
	}
	for name, text := range cases {
		if _, err := ReadTrace(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCodecDefaultsOptionalFields(t *testing.T) {
	text := `{"format":"xgft-trace","version":1,"ranks":2}` + "\n" +
		`{"rank":0,"op":"send","dst":1,"bytes":10}` + "\n" +
		`{"rank":1,"op":"recv","src":0}` + "\n"
	tr, err := ReadTrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ranks[0][0].(Send).Tag != 0 {
		t.Error("default tag not 0")
	}
}

func TestCodecRoundTripReplaysIdentically(t *testing.T) {
	// A serialized-and-reloaded trace must replay to the exact same
	// completion time.
	tp, err := xgft.NewSlimmedTree(16, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{Ranks: make([][]Op, 32)}
	for r := 0; r < 32; r++ {
		dst := (r + 5) % 32
		src := (r - 5 + 32) % 32
		tr.Ranks[r] = []Op{
			Compute{Dur: 100},
			ISend{Dst: dst, Bytes: 8 * 1024, Tag: 0, Req: 0},
			Recv{Src: src, Tag: 0},
			WaitAll{},
		}
	}
	loaded := roundTrip(t, tr)
	cfg := Config{Net: venus.DefaultConfig()}
	a, err := Replay(tr, tp, core.NewDModK(tp), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(loaded, tp, core.NewDModK(tp), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("original replays to %d, reloaded to %d", a, b)
	}
}
