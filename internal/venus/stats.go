package venus

import (
	"fmt"
	"sort"

	"repro/internal/eventq"
)

// ChannelUsage reports the load one directed channel carried during a
// run.
type ChannelUsage struct {
	// Wire is the undirected wire ID (xgft channel ID); Up tells the
	// direction.
	Wire int
	Up   bool
	// Level/Node/Port locate the wire (child-side endpoint).
	Level, Node, Port int
	// Bytes moved and time spent transmitting.
	Bytes    int64
	BusyTime eventq.Time
	Segments int
}

// Utilization returns the fraction of the horizon this channel spent
// transmitting.
func (u ChannelUsage) Utilization(horizon eventq.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(u.BusyTime) / float64(horizon)
}

// ChannelUsages returns per-channel statistics of everything
// transmitted so far, ordered by descending busy time. Channels that
// carried nothing are omitted.
func (s *Sim) ChannelUsages() []ChannelUsage {
	n := s.Topo.TotalChannels()
	var out []ChannelUsage
	for i := range s.chans {
		c := &s.chans[i]
		if c.segments == 0 {
			continue
		}
		wire := i
		up := true
		if i >= n {
			wire = i - n
			up = false
		}
		level, node, port := s.Topo.ChannelOf(wire)
		out = append(out, ChannelUsage{
			Wire: wire, Up: up,
			Level: level, Node: node, Port: port,
			Bytes: c.bytes, BusyTime: c.busyTime, Segments: c.segments,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BusyTime != out[j].BusyTime {
			return out[i].BusyTime > out[j].BusyTime
		}
		if out[i].Wire != out[j].Wire {
			return out[i].Wire < out[j].Wire
		}
		return out[i].Up && !out[j].Up
	})
	return out
}

// MaxUtilization returns the highest per-channel utilization over the
// run so far (busiest wire direction / current time).
func (s *Sim) MaxUtilization() float64 {
	horizon := s.Q.Now()
	if horizon == 0 {
		return 0
	}
	var max float64
	for i := range s.chans {
		if u := float64(s.chans[i].busyTime) / float64(horizon); u > max {
			max = u
		}
	}
	return max
}

// UsageSummary aggregates the per-level byte totals — a quick view of
// where the traffic concentrated.
func (s *Sim) UsageSummary() string {
	n := s.Topo.TotalChannels()
	upByLevel := make(map[int]int64)
	downByLevel := make(map[int]int64)
	for i := range s.chans {
		c := &s.chans[i]
		if c.segments == 0 {
			continue
		}
		wire := i
		byLevel := upByLevel
		if i >= n {
			wire = i - n
			byLevel = downByLevel
		}
		level, _, _ := s.Topo.ChannelOf(wire)
		byLevel[level] += c.bytes
	}
	out := ""
	for l := 0; l < s.Topo.Height(); l++ {
		out += fmt.Sprintf("level %d: up %d B, down %d B\n", l, upByLevel[l], downByLevel[l])
	}
	return out
}
