package venus

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/pattern"
	"repro/internal/xgft"
)

// RunPattern injects every flow of the pattern at t=0 (the paper's
// strategy (ii): all messages fragmented and injected simultaneously)
// and runs to completion, returning the makespan. A flow with an
// endpoint off the tree is refused before any scheme is asked to route
// it.
func RunPattern(t *xgft.Topology, algo core.Algorithm, p *pattern.Pattern, cfg Config) (eventq.Time, error) {
	routes := make([]xgft.Route, len(p.Flows))
	n := t.Leaves()
	for i, f := range p.Flows {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return 0, fmt.Errorf("venus: flow %d (%d->%d) has an endpoint off the %d-leaf tree", i, f.Src, f.Dst, n)
		}
		if f.Src != f.Dst {
			routes[i] = algo.Route(f.Src, f.Dst)
		}
	}
	d, _, err := RunRoutes(t, p, routes, cfg)
	return d, err
}

// RunRoutes is RunPattern under explicit routes, routes[i] carrying
// p.Flows[i] (a self-flow's is ignored); it also returns the number of
// discrete events processed.
func RunRoutes(t *xgft.Topology, p *pattern.Pattern, routes []xgft.Route, cfg Config) (eventq.Time, uint64, error) {
	if len(routes) != len(p.Flows) {
		return 0, 0, fmt.Errorf("venus: %d routes for %d flows", len(routes), len(p.Flows))
	}
	s, err := New(t, cfg)
	if err != nil {
		return 0, 0, err
	}
	for i, f := range p.Flows {
		m := Message{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes}
		if f.Src != f.Dst {
			m.Route = routes[i]
		}
		if err := s.Inject(m); err != nil {
			return 0, 0, err
		}
	}
	d, err := s.Run(EventBudget(p, cfg))
	if err != nil {
		return 0, 0, err
	}
	return d, s.Q.Processed(), nil
}

// RunPhases simulates a sequence of synchronization-separated phases
// (each phase starts when the previous one fully completes) and
// returns the total time.
func RunPhases(t *xgft.Topology, algo core.Algorithm, phases []*pattern.Pattern, cfg Config) (eventq.Time, error) {
	var total eventq.Time
	for i, p := range phases {
		d, err := RunPattern(t, algo, p, cfg)
		if err != nil {
			return 0, fmt.Errorf("venus: phase %d: %w", i, err)
		}
		total += d
	}
	return total, nil
}

// CrossbarTime simulates the pattern on the paper's Full-Crossbar
// reference: an ideal single-stage network where only the adapters
// serialize.
func CrossbarTime(p *pattern.Pattern, cfg Config) (eventq.Time, error) {
	xb, err := xgft.NewFullCrossbar(p.N)
	if err != nil {
		return 0, err
	}
	return RunPattern(xb, core.NewSModK(xb), p, cfg)
}

// CrossbarPhases is RunPhases on the Full-Crossbar reference.
func CrossbarPhases(phases []*pattern.Pattern, cfg Config) (eventq.Time, error) {
	var total eventq.Time
	for i, p := range phases {
		d, err := CrossbarTime(p, cfg)
		if err != nil {
			return 0, fmt.Errorf("venus: crossbar phase %d: %w", i, err)
		}
		total += d
	}
	return total, nil
}

// MeasuredSlowdown runs the pattern on the topology and on the
// crossbar and returns the ratio — the simulated counterpart of
// contention.Slowdown and the quantity on the Y axis of the paper's
// Figs. 2 and 5.
func MeasuredSlowdown(t *xgft.Topology, algo core.Algorithm, p *pattern.Pattern, cfg Config) (float64, error) {
	return MeasuredPhasedSlowdown(t, algo, []*pattern.Pattern{p}, cfg)
}

// MeasuredPhasedSlowdown is MeasuredSlowdown over dependent phases.
func MeasuredPhasedSlowdown(t *xgft.Topology, algo core.Algorithm, phases []*pattern.Pattern, cfg Config) (float64, error) {
	net, err := RunPhases(t, algo, phases, cfg)
	if err != nil {
		return 0, err
	}
	ref, err := CrossbarPhases(phases, cfg)
	if err != nil {
		return 0, err
	}
	if ref == 0 {
		return 1, nil
	}
	return float64(net) / float64(ref), nil
}

// EventBudget bounds the event count for a pattern run: a generous
// multiple of the theoretical segment-hop count, so genuine deadlock
// or livelock fails fast instead of hanging.
func EventBudget(p *pattern.Pattern, cfg Config) uint64 {
	var segs uint64
	for _, f := range p.Flows {
		segs += uint64(f.Bytes/int64(cfg.SegmentBytes)) + 2
	}
	const maxHops = 2 * xgft.MaxHeight
	budget := segs * maxHops * 8
	if budget < 1_000_000 {
		budget = 1_000_000
	}
	return budget
}
