// Package traces generates the synthetic application traces that
// substitute for the paper's post-mortem WRF-256 and NAS CG.D-128
// traces (README.md, "Substitutions and known deviations", #1): the
// communication structure is exactly the one the paper documents;
// compute intervals are parameters.
package traces

import (
	"fmt"

	"repro/internal/dimemas"
	"repro/internal/eventq"
	"repro/internal/pattern"
)

// WRF builds the WRF halo-exchange trace on a rows x cols task mesh:
// every iteration, each task posts non-blocking sends to its ±cols
// neighbours (both outstanding simultaneously, as the paper
// describes), receives from them, and waits for completion.
func WRF(rows, cols int, bytes int64, iterations int, compute eventq.Time) (*dimemas.Trace, error) {
	if rows < 2 || cols < 1 {
		return nil, fmt.Errorf("traces: WRF mesh %dx%d too small", rows, cols)
	}
	if iterations < 1 {
		return nil, fmt.Errorf("traces: need at least one iteration")
	}
	n := rows * cols
	t := &dimemas.Trace{Ranks: make([][]dimemas.Op, n)}
	for r := 0; r < n; r++ {
		var ops []dimemas.Op
		for it := 0; it < iterations; it++ {
			if compute > 0 {
				ops = append(ops, dimemas.Compute{Dur: compute})
			}
			tag := it
			req := 0
			if r+cols < n {
				ops = append(ops, dimemas.ISend{Dst: r + cols, Bytes: bytes, Tag: tag, Req: req})
				req++
			}
			if r-cols >= 0 {
				ops = append(ops, dimemas.ISend{Dst: r - cols, Bytes: bytes, Tag: tag, Req: req})
				req++
			}
			if r+cols < n {
				ops = append(ops, dimemas.Recv{Src: r + cols, Tag: tag})
			}
			if r-cols >= 0 {
				ops = append(ops, dimemas.Recv{Src: r - cols, Tag: tag})
			}
			ops = append(ops, dimemas.WaitAll{})
		}
		t.Ranks[r] = ops
	}
	return t, nil
}

// CG builds the NAS CG trace: per iteration, the row-butterfly
// phases followed by the transpose exchange, phases separated by the
// data dependencies of the kernel (modelled with barriers, which is
// conservative but preserves the paper's per-phase accounting).
func CG(nprocs int, bytes int64, iterations int, compute eventq.Time) (*dimemas.Trace, error) {
	phases, err := pattern.CGPhases(nprocs, bytes)
	if err != nil {
		return nil, err
	}
	if iterations < 1 {
		return nil, fmt.Errorf("traces: need at least one iteration")
	}
	return FromPhases(nprocs, phases, iterations, compute)
}

// FromPhases lowers a sequence of communication phases into a trace:
// each phase is a non-blocking exchange (all sends posted, then all
// receives, then wait), with a barrier separating phases.
func FromPhases(n int, phases []*pattern.Pattern, iterations int, compute eventq.Time) (*dimemas.Trace, error) {
	if n < 1 {
		return nil, fmt.Errorf("traces: no ranks")
	}
	if iterations < 1 {
		return nil, fmt.Errorf("traces: need at least one iteration")
	}
	// Pre-index flows by source and destination per phase.
	type exchange struct {
		sends [][]dimemas.ISend // per rank
		recvs [][]dimemas.Recv  // per rank
	}
	exchanges := make([]exchange, len(phases))
	for pi, ph := range phases {
		if ph.N != n {
			return nil, fmt.Errorf("traces: phase %d is over %d endpoints, want %d", pi, ph.N, n)
		}
		ex := exchange{sends: make([][]dimemas.ISend, n), recvs: make([][]dimemas.Recv, n)}
		reqs := make([]int, n)
		for _, f := range ph.Flows {
			ex.sends[f.Src] = append(ex.sends[f.Src], dimemas.ISend{Dst: f.Dst, Bytes: f.Bytes, Tag: pi, Req: reqs[f.Src]})
			reqs[f.Src]++
			ex.recvs[f.Dst] = append(ex.recvs[f.Dst], dimemas.Recv{Src: f.Src, Tag: pi})
		}
		exchanges[pi] = ex
	}
	t := &dimemas.Trace{Ranks: make([][]dimemas.Op, n)}
	for r := 0; r < n; r++ {
		var ops []dimemas.Op
		for it := 0; it < iterations; it++ {
			for pi := range exchanges {
				if compute > 0 {
					ops = append(ops, dimemas.Compute{Dur: compute})
				}
				for _, s := range exchanges[pi].sends[r] {
					ops = append(ops, s)
				}
				for _, rc := range exchanges[pi].recvs[r] {
					ops = append(ops, rc)
				}
				ops = append(ops, dimemas.WaitAll{})
				ops = append(ops, dimemas.Barrier{})
			}
		}
		t.Ranks[r] = ops
	}
	return t, nil
}
