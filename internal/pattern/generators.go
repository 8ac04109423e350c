package pattern

import (
	"fmt"

	"repro/internal/hashutil"
)

// DefaultCGPhaseBytes is the per-message size of every CG exchange
// phase reported by the paper (§VII-A): 750 KB.
const DefaultCGPhaseBytes = 750 * 1024

// DefaultWRFBytes is the per-message halo size used for WRF. The
// paper does not state it; slowdowns are ratios, so the choice only
// scales absolute times (see README.md, "Substitutions and known
// deviations", #5).
const DefaultWRFBytes = 512 * 1024

// WRF builds the paper's WRF-256 communication structure on a
// rows x cols task mesh: every task T_i exchanges with T_{i±cols}
// ("pairwise exchanges in a 16x16 mesh; every task initiates two
// outstanding communications to nodes T_{i±16}"). The first and last
// row only talk to one neighbour. Both directions are injected
// simultaneously, matching the paper's description of outstanding
// sends.
func WRF(rows, cols int, bytes int64) *Pattern {
	n := rows * cols
	p := New(n)
	for i := 0; i < n; i++ {
		if i+cols < n {
			p.Add(i, i+cols, bytes)
		}
		if i-cols >= 0 {
			p.Add(i, i-cols, bytes)
		}
	}
	return p
}

// WRF256 is the exact WRF-256 instance of the evaluation.
func WRF256() *Pattern { return WRF(16, 16, DefaultWRFBytes) }

// CGPhases builds the NAS CG communication structure for nprocs
// ranks (nprocs must be a power of two >= 4) as a sequence of
// phases. With the grid factorization nprows x npcols
// (npcols = nprows or 2*nprows), CG performs log2(npcols) butterfly
// exchanges across each processor row — ranks of one row are
// contiguous, so on trees with >= npcols-port first-level switches
// these are switch-local — followed by the transpose exchange. For
// nprocs=128 this yields the paper's five phases of which only the
// fifth leaves the first-level switch, and the fifth phase follows
// the paper's Eq. (2): within switch 0, d = s/2*16 + (s mod 2).
func CGPhases(nprocs int, bytes int64) ([]*Pattern, error) {
	if nprocs < 4 || nprocs&(nprocs-1) != 0 {
		return nil, fmt.Errorf("pattern: CG needs a power-of-two process count >= 4, got %d", nprocs)
	}
	log2 := 0
	for v := nprocs; v > 1; v >>= 1 {
		log2++
	}
	nprows := 1 << (log2 / 2)
	npcols := nprocs / nprows // npcols == nprows or 2*nprows
	// Butterfly phases across each row: partner = rank XOR 2^k for
	// k = 0..log2(npcols)-1. Row-mates are contiguous ranks.
	var phases []*Pattern
	for dist := 1; dist < npcols; dist <<= 1 {
		ph := New(nprocs)
		for r := 0; r < nprocs; r++ {
			ph.Add(r, r^dist, bytes)
		}
		phases = append(phases, ph)
	}
	phases = append(phases, cgTranspose(nprocs, nprows, npcols, bytes))
	return phases, nil
}

// cgTranspose builds CG's irregular "exchange" phase: the transpose
// partner permutation of the NAS CG kernel.
func cgTranspose(nprocs, nprows, npcols int, bytes int64) *Pattern {
	ph := New(nprocs)
	for me := 0; me < nprocs; me++ {
		var partner int
		if npcols == nprows {
			partner = (me%nprows)*nprows + me/nprows
		} else {
			// npcols == 2*nprows: pairs of ranks transpose together.
			half := me / 2
			partner = 2*((half%nprows)*nprows+half/nprows) + me%2
		}
		ph.Add(me, partner, bytes)
	}
	return ph
}

// CGTransposePhase returns only the non-local fifth phase for nprocs
// ranks; for nprocs=128 this is the permutation of the paper's
// Eq. (2) analysis.
func CGTransposePhase(nprocs int, bytes int64) (*Pattern, error) {
	phases, err := CGPhases(nprocs, bytes)
	if err != nil {
		return nil, err
	}
	return phases[len(phases)-1], nil
}

// CGD128Phases is the exact CG.D-128 instance of the evaluation:
// five phases of 750 KB messages.
func CGD128Phases() []*Pattern {
	phases, err := CGPhases(128, DefaultCGPhaseBytes)
	if err != nil {
		panic(err) //lint:allow banned unreachable: 128 is a valid count
	}
	return phases
}

// Shift builds the cyclic shift pattern i -> (i+k) mod n used by the
// InfiniBand fat-tree routing literature the paper cites.
func Shift(n, k int, bytes int64) *Pattern {
	p := New(n)
	for i := 0; i < n; i++ {
		d := ((i+k)%n + n) % n
		if d != i {
			p.Add(i, d, bytes)
		}
	}
	return p
}

// Transpose builds the matrix-transpose permutation on an r x c grid
// (rank i=row*c+col sends to col*r+row).
func Transpose(rows, cols int, bytes int64) *Pattern {
	n := rows * cols
	p := New(n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		d := c*rows + r
		if d != i {
			p.Add(i, d, bytes)
		}
	}
	return p
}

// BitReversal builds the bit-reversal permutation on n = 2^k nodes.
func BitReversal(n int, bytes int64) (*Pattern, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("pattern: bit reversal needs a power of two, got %d", n)
	}
	bits := 0
	for v := n; v > 1; v >>= 1 {
		bits++
	}
	p := New(n)
	for i := 0; i < n; i++ {
		d := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				d |= 1 << (bits - 1 - b)
			}
		}
		if d != i {
			p.Add(i, d, bytes)
		}
	}
	return p, nil
}

// Tornado builds the tornado pattern i -> (i + n/2 - 1) mod n.
func Tornado(n int, bytes int64) *Pattern {
	return Shift(n, n/2-1, bytes)
}

// AllToAll builds the complete exchange: every node sends bytes to
// every other node.
func AllToAll(n int, bytes int64) *Pattern {
	p := New(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				p.Add(s, d, bytes)
			}
		}
	}
	return p
}

// UniformRandom builds a pattern where every node sends `flowsPerNode`
// messages to independently drawn uniform destinations (the "random
// traffic" of the simulation studies the paper discusses). Every
// destination draw comes from the keyed splitmix64 stream, so the
// pattern is a pure function of (seed, n, flowsPerNode) — the
// coordinate-derived-randomness rule the routing schemes follow.
func UniformRandom(n, flowsPerNode int, bytes int64, seed uint64) *Pattern {
	p := New(n)
	for s := 0; s < n; s++ {
		for k := 0; k < flowsPerNode; k++ {
			// Modulo bias over n-1 is negligible at fat-tree scales.
			d := int(hashutil.Mix(seed, uint64(s), uint64(k)) % uint64(n-1))
			if d >= s {
				d++
			}
			p.Add(s, d, bytes)
		}
	}
	return p
}

// KeyedRandomPermutation draws a uniform random permutation pattern
// from the keyed splitmix64 stream — deterministic per (seed, n) with
// no rand.Rand state (see KeyedPerm).
func KeyedRandomPermutation(n int, bytes int64, seed uint64) *Pattern {
	return KeyedPerm(n, seed).Pattern(bytes)
}
