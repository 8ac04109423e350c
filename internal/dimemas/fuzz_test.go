package dimemas

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to ReadTrace, which must never
// panic, and holds every trace it accepts to a round trip: WriteTrace
// writes it, and ReadTrace reads the same trace back.
func FuzzReadTrace(f *testing.F) {
	for _, seed := range []string{
		`{"format":"xgft-trace","version":1,"ranks":4611686018427387904}`,
		`{"format":"xgft-trace","version":1,"ranks":2}` + "\n" +
			`{"rank":0,"op":"compute","dur":100}` + "\n" +
			`{"rank":0,"op":"isend","dst":1,"bytes":1024,"tag":3,"req":9}` + "\n" +
			`{"rank":0,"op":"wait","req":9}` + "\n" +
			`{"rank":0,"op":"barrier"}` + "\n" +
			`{"rank":1,"op":"recv","src":-1,"tag":3}` + "\n" +
			`{"rank":1,"op":"send","dst":0,"bytes":8}` + "\n" +
			`{"rank":1,"op":"waitall"}` + "\n" +
			`{"rank":1,"op":"barrier"}`,
		`{"format":"xgft-trace","version":1,"ranks":1}` + "\n" + `{"rank":0,"op":"recv","src":0}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %#v\nwant %#v", back, tr)
		}
	})
}
