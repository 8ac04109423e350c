package xgft

import (
	"repro/internal/hashutil"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		spec   string
		leaves int
		h      int
	}{
		{"2;16,16;1,16", 256, 2},
		{"2;16,16;1,10", 256, 2},
		{" 3;4,4,4;1,2,2 ", 64, 3},
		{"1;64;1", 64, 1},
		{"2; 8 , 8 ; 1 , 4", 64, 2},
	}
	for _, c := range cases {
		tp, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if tp.Leaves() != c.leaves || tp.Height() != c.h {
			t.Errorf("Parse(%q) = %v", c.spec, tp)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"2;16,16",
		"2;16,16;1,16;extra",
		"x;16,16;1,16",
		"2;16,x;1,16",
		"2;16,16;1,x",
		"2;16;1,16",
		"0;;",
		"2;16,16;1,0",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// TestParseRefusesOverflow: a spec whose node or channel count
// overflows, or passes the int32 bound the parent table needs, is an
// error before anything is allocated, not a panic in make.
func TestParseRefusesOverflow(t *testing.T) {
	for _, spec := range []string{
		"2;1,1;2147483648,4294967296",
		"2;1,1;3037000500,3037000500",
		"3;1,1,1;2097152,2097152,2097152",
		"2;2,2;4611686018427387904,2",
		"1;1;2147483648",
		"4;1,1,1,1;65536,65536,65536,65536",
	} {
		if tp, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) = %v, want an error", spec, tp)
		}
	}
}

func TestParseQuickRoundTrip(t *testing.T) {
	// Parse is the inverse of the String notation minus decoration.
	f := func(seed int64) bool {
		r := newRand(seed)
		tp := randomTopology(r)
		s := tp.String() // XGFT(h;m...;w...)
		spec := s[len("XGFT(") : len(s)-1]
		got, err := Parse(spec)
		if err != nil {
			return false
		}
		return got.Equal(tp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func newRand(seed int64) *hashutil.Stream { return hashutil.NewStream(uint64(seed)) }
