// Package pattern models communication patterns as sets of flows
// (source, destination, byte count), the connectivity-matrix view of
// the paper's §III, and provides the permutation algebra used by the
// combinatorial analysis of §VII-B/C (inverses, decomposition of
// general patterns into permutations) plus generators for the
// application patterns of the evaluation (WRF halo exchange, NAS CG)
// and classic synthetic patterns.
package pattern

import (
	"fmt"

	"repro/internal/hashutil"
)

// Flow is a single point-to-point transfer of Bytes bytes.
type Flow struct {
	Src, Dst int
	Bytes    int64
}

// Pattern is a communication pattern over N endpoints. The same
// (Src, Dst) pair may appear in several flows (multigraph), matching
// the paper's general connectivity matrices where m_ij carries a cost
// such as a byte count.
type Pattern struct {
	N     int
	Flows []Flow
}

// New returns an empty pattern over n endpoints.
func New(n int) *Pattern { return &Pattern{N: n} }

// Add appends a flow. Self-flows (src == dst) are legal but carry no
// network traffic; routing layers skip them.
func (p *Pattern) Add(src, dst int, bytes int64) {
	p.Flows = append(p.Flows, Flow{Src: src, Dst: dst, Bytes: bytes})
}

// Validate checks all endpoints are within [0, N) and byte counts are
// non-negative.
func (p *Pattern) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("pattern: N=%d must be positive", p.N)
	}
	for i, f := range p.Flows {
		if f.Src < 0 || f.Src >= p.N {
			return fmt.Errorf("pattern: flow %d source %d out of range [0,%d)", i, f.Src, p.N)
		}
		if f.Dst < 0 || f.Dst >= p.N {
			return fmt.Errorf("pattern: flow %d destination %d out of range [0,%d)", i, f.Dst, p.N)
		}
		if f.Bytes < 0 {
			return fmt.Errorf("pattern: flow %d has negative byte count %d", i, f.Bytes)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (p *Pattern) Clone() *Pattern {
	return &Pattern{N: p.N, Flows: append([]Flow(nil), p.Flows...)}
}

// TotalBytes sums the byte counts of all flows.
func (p *Pattern) TotalBytes() int64 {
	var total int64
	for _, f := range p.Flows {
		total += f.Bytes
	}
	return total
}

// Fingerprint returns a 64-bit content hash of the pattern: N plus
// every flow in order. Two patterns built independently from the same
// flows hash identically, which is what lets routing-table caches key
// on pattern *content* rather than pointer identity. Flow order is
// significant (tables are flow-order aligned).
func (p *Pattern) Fingerprint() uint64 {
	h := hashutil.Fold(0x9e3779b97f4a7c15, uint64(p.N), uint64(len(p.Flows)))
	for _, f := range p.Flows {
		h = hashutil.Fold(h, uint64(f.Src), uint64(f.Dst), uint64(f.Bytes))
	}
	return h
}

// Inverse returns the pattern with every flow reversed: the D -> S
// pattern of §VII-B whose D-mod-k behaviour mirrors S-mod-k on the
// original.
func (p *Pattern) Inverse() *Pattern {
	inv := &Pattern{N: p.N, Flows: make([]Flow, len(p.Flows))}
	for i, f := range p.Flows {
		inv.Flows[i] = Flow{Src: f.Dst, Dst: f.Src, Bytes: f.Bytes}
	}
	return inv
}

// Union merges several patterns over the same endpoint count.
func Union(ps ...*Pattern) (*Pattern, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("pattern: union of nothing")
	}
	out := &Pattern{N: ps[0].N}
	for _, p := range ps {
		if p.N != out.N {
			return nil, fmt.Errorf("pattern: union size mismatch %d vs %d", p.N, out.N)
		}
		out.Flows = append(out.Flows, p.Flows...)
	}
	return out, nil
}

// IsPermutation reports whether the pattern is a permutation in the
// paper's sense: every source sends to at most one destination, every
// destination receives from at most one source, and no flow is a
// self-flow.
func (p *Pattern) IsPermutation() bool {
	srcSeen := make([]bool, p.N)
	dstSeen := make([]bool, p.N)
	for _, f := range p.Flows {
		if f.Src == f.Dst {
			return false
		}
		if srcSeen[f.Src] || dstSeen[f.Dst] {
			return false
		}
		srcSeen[f.Src] = true
		dstSeen[f.Dst] = true
	}
	return true
}

// ConnectivityMatrix materializes the N x N byte matrix M with
// M[s][d] = total bytes from s to d (the paper's §III view). Only
// sensible for small N.
func (p *Pattern) ConnectivityMatrix() [][]int64 {
	m := make([][]int64, p.N)
	row := make([]int64, p.N*p.N)
	for i := range m {
		m[i], row = row[:p.N:p.N], row[p.N:]
	}
	for _, f := range p.Flows {
		m[f.Src][f.Dst] += f.Bytes
	}
	return m
}

// OutDegree returns, per source, the number of flows it originates;
// InDegree the number of flows each destination receives. These are
// the endpoint-contention counts of §IV.
func (p *Pattern) OutDegree() []int {
	d := make([]int, p.N)
	for _, f := range p.Flows {
		if f.Src != f.Dst {
			d[f.Src]++
		}
	}
	return d
}

// InDegree is the receive-side counterpart of OutDegree.
func (p *Pattern) InDegree() []int {
	d := make([]int, p.N)
	for _, f := range p.Flows {
		if f.Src != f.Dst {
			d[f.Dst]++
		}
	}
	return d
}

// BytesOut returns per-source injected bytes; BytesIn per-destination
// ejected bytes. Self-flows are excluded (they never enter the
// network). These drive the full-crossbar completion bound.
func (p *Pattern) BytesOut() []int64 {
	b := make([]int64, p.N)
	for _, f := range p.Flows {
		if f.Src != f.Dst {
			b[f.Src] += f.Bytes
		}
	}
	return b
}

// BytesIn is the receive-side counterpart of BytesOut.
func (p *Pattern) BytesIn() []int64 {
	b := make([]int64, p.N)
	for _, f := range p.Flows {
		if f.Src != f.Dst {
			b[f.Dst] += f.Bytes
		}
	}
	return b
}

// Perm is a (possibly partial) permutation mapping: Perm[i] = j means
// i sends to j; Perm[i] = -1 means i is silent.
type Perm []int

// Identity returns the identity mapping on n points.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// KeyedPerm draws a uniform full permutation on n points from the
// keyed splitmix64 stream: a pure function of (seed, n), so the same
// seed names the same permutation on every platform and Go version —
// the coordinate-derived-randomness rule the routing schemes follow,
// available to workload generators.
func KeyedPerm(n int, seed uint64) Perm {
	p := Identity(n)
	// Fisher–Yates with hash-derived draws; modulo bias over i+1 is
	// negligible at fat-tree scales (i+1 << 2^64).
	for i := n - 1; i > 0; i-- {
		j := int(hashutil.Mix(seed, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Validate checks the mapping is a partial permutation.
func (pm Perm) Validate() error {
	seen := make([]bool, len(pm))
	for i, v := range pm {
		if v == -1 {
			continue
		}
		if v < 0 || v >= len(pm) {
			return fmt.Errorf("perm: image %d of %d out of range", v, i)
		}
		if seen[v] {
			return fmt.Errorf("perm: image %d hit twice", v)
		}
		seen[v] = true
	}
	return nil
}

// Inverse returns the inverse partial permutation.
func (pm Perm) Inverse() Perm {
	inv := make(Perm, len(pm))
	for i := range inv {
		inv[i] = -1
	}
	for i, v := range pm {
		if v >= 0 {
			inv[v] = i
		}
	}
	return inv
}

// Compose returns the mapping q∘p: (q after p).
func (pm Perm) Compose(q Perm) Perm {
	out := make(Perm, len(pm))
	for i, v := range pm {
		if v < 0 || q[v] < 0 {
			out[i] = -1
			continue
		}
		out[i] = q[v]
	}
	return out
}

// Pattern converts the mapping into a Pattern with the given per-flow
// byte count, skipping silent sources and self-mappings.
func (pm Perm) Pattern(bytes int64) *Pattern {
	p := New(len(pm))
	for i, v := range pm {
		if v >= 0 && v != i {
			p.Add(i, v, bytes)
		}
	}
	return p
}
