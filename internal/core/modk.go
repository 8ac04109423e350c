package core

import "repro/internal/xgft"

// modK implements the shared machinery of S-mod-k and D-mod-k: the
// up-port at switch level l is guide-label digit l-1 modulo w_{l+1}
// (paper §V), where the guide label is the source's (S-mod-k) or the
// destination's (D-mod-k).
type modK struct {
	topo      *xgft.Topology
	useSource bool
	name      string
}

// NewSModK returns the source-mod-k self-routing scheme of the early
// fat-tree literature: every source is assigned a unique ascending
// path regardless of the destination, concentrating source-side
// endpoint contention.
func NewSModK(t *xgft.Topology) Algorithm {
	return &modK{topo: t, useSource: true, name: "s-mod-k"}
}

// NewDModK returns the destination-mod-k scheme: every destination is
// assigned a unique descending path regardless of the source,
// concentrating destination-side endpoint contention.
func NewDModK(t *xgft.Topology) Algorithm {
	return &modK{topo: t, useSource: false, name: "d-mod-k"}
}

func (m *modK) Name() string { return m.name }

// CacheKey marks mod-k routes as memoizable: they are a pure function
// of the topology spec and the scheme name.
func (m *modK) CacheKey() string { return m.name }

func (m *modK) guidedBySource() bool { return m.useSource }

func (m *modK) Route(src, dst int) xgft.Route {
	var buf [xgft.MaxHeight]int
	return ownedRoute(src, dst, m.ascentInto(src, dst, buf[:0]))
}

func (m *modK) ascentInto(src, dst int, up []int) []int {
	l := m.topo.NCALevel(src, dst)
	guide := src
	if !m.useSource {
		guide = dst
	}
	var lab [xgft.MaxHeight]int
	m.topo.LabelInto(0, guide, lab[:m.topo.Height()])
	for lvl := 0; lvl < l; lvl++ {
		up = append(up, lab[guideDigit(lvl)]%m.topo.W(lvl))
	}
	return up
}
