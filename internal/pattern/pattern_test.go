package pattern

import (
	"repro/internal/hashutil"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	p := New(4)
	p.Add(0, 1, 100)
	p.Add(3, 2, 200)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid pattern rejected: %v", err)
	}
	bad := []*Pattern{
		{N: 0},
		{N: 4, Flows: []Flow{{Src: -1, Dst: 0, Bytes: 1}}},
		{N: 4, Flows: []Flow{{Src: 0, Dst: 4, Bytes: 1}}},
		{N: 4, Flows: []Flow{{Src: 0, Dst: 1, Bytes: -5}}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad pattern %d accepted", i)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	p := New(8)
	p.Add(0, 5, 10)
	p.Add(5, 0, 20)
	p.Add(3, 3, 30)
	inv := p.Inverse()
	if inv.Flows[0] != (Flow{Src: 5, Dst: 0, Bytes: 10}) {
		t.Errorf("inverse flow 0 = %+v", inv.Flows[0])
	}
	back := inv.Inverse()
	for i := range p.Flows {
		if back.Flows[i] != p.Flows[i] {
			t.Errorf("double inverse flow %d = %+v, want %+v", i, back.Flows[i], p.Flows[i])
		}
	}
}

func TestIsPermutation(t *testing.T) {
	perm := New(4)
	perm.Add(0, 1, 1)
	perm.Add(1, 0, 1)
	perm.Add(2, 3, 1)
	if !perm.IsPermutation() {
		t.Error("permutation not recognized")
	}
	dupSrc := New(4)
	dupSrc.Add(0, 1, 1)
	dupSrc.Add(0, 2, 1)
	if dupSrc.IsPermutation() {
		t.Error("duplicate source accepted as permutation")
	}
	dupDst := New(4)
	dupDst.Add(0, 2, 1)
	dupDst.Add(1, 2, 1)
	if dupDst.IsPermutation() {
		t.Error("duplicate destination accepted as permutation")
	}
	selfFlow := New(4)
	selfFlow.Add(2, 2, 1)
	if selfFlow.IsPermutation() {
		t.Error("self flow accepted as permutation")
	}
}

func TestConnectivityMatrix(t *testing.T) {
	p := New(3)
	p.Add(0, 1, 10)
	p.Add(0, 1, 5)
	p.Add(2, 0, 7)
	m := p.ConnectivityMatrix()
	if m[0][1] != 15 || m[2][0] != 7 || m[1][2] != 0 {
		t.Errorf("matrix = %v", m)
	}
}

func TestDegreesAndBytes(t *testing.T) {
	p := New(4)
	p.Add(0, 1, 10)
	p.Add(0, 2, 20)
	p.Add(3, 1, 5)
	p.Add(2, 2, 99) // self flow: ignored by degree/byte accounting
	out := p.OutDegree()
	in := p.InDegree()
	if out[0] != 2 || out[3] != 1 || out[2] != 0 {
		t.Errorf("out degrees = %v", out)
	}
	if in[1] != 2 || in[2] != 1 || in[0] != 0 {
		t.Errorf("in degrees = %v", in)
	}
	bo, bi := p.BytesOut(), p.BytesIn()
	if bo[0] != 30 || bo[2] != 0 {
		t.Errorf("bytes out = %v", bo)
	}
	if bi[1] != 15 || bi[2] != 20 {
		t.Errorf("bytes in = %v", bi)
	}
	if p.TotalBytes() != 134 {
		t.Errorf("total bytes = %d", p.TotalBytes())
	}
}

func TestUnion(t *testing.T) {
	a := New(4)
	a.Add(0, 1, 1)
	b := New(4)
	b.Add(2, 3, 2)
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Flows) != 2 {
		t.Errorf("union has %d flows", len(u.Flows))
	}
	c := New(5)
	if _, err := Union(a, c); err == nil {
		t.Error("union of mismatched sizes accepted")
	}
	if _, err := Union(); err == nil {
		t.Error("empty union accepted")
	}
}

func TestPermAlgebra(t *testing.T) {
	id := Identity(5)
	for i, v := range id {
		if v != i {
			t.Fatalf("identity[%d] = %d", i, v)
		}
	}
	p := KeyedPerm(8, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inv := p.Inverse()
	comp := p.Compose(inv)
	for i, v := range comp {
		if v != i {
			t.Fatalf("p∘p⁻¹[%d] = %d", i, v)
		}
	}
}

func TestPermPartial(t *testing.T) {
	p := Perm{2, -1, 0}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inv := p.Inverse()
	if inv[0] != 2 || inv[1] != -1 || inv[2] != 0 {
		t.Errorf("partial inverse = %v", inv)
	}
	bad := Perm{0, 0, 1}
	if bad.Validate() == nil {
		t.Error("duplicate image accepted")
	}
	oob := Perm{3, 1, 2}
	if oob.Validate() == nil {
		t.Error("out-of-range image accepted")
	}
}

func TestPermPattern(t *testing.T) {
	p := Perm{1, 0, 2, -1}
	pat := p.Pattern(64)
	if len(pat.Flows) != 2 {
		t.Fatalf("pattern has %d flows, want 2 (self and silent skipped)", len(pat.Flows))
	}
	if !pat.IsPermutation() {
		t.Error("perm pattern is not a permutation")
	}
}

func TestQuickPermInverseInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := hashutil.NewStream(uint64(seed))
		n := 2 + rng.Intn(64)
		p := KeyedPerm(n, uint64(seed))
		q := p.Inverse().Inverse()
		for i := range p {
			if p[i] != q[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
