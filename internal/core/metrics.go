package core

import (
	"fmt"
	"strings"

	"gossip/internal/phone"
)

// Phase is the named meter of one algorithm phase.
type Phase struct {
	Name  string
	Meter phone.Meter
}

// Result summarizes one gossiping run.
type Result struct {
	Algorithm string
	N         int
	// Steps is the number of synchronous steps executed across all phases.
	Steps int
	// Completed reports whether every node ended up knowing every message
	// (or, for broadcast-shaped runs, whether all nodes were informed).
	Completed bool
	// Meter is the whole-run communication accounting.
	Meter phone.Meter
	// Phases is the per-phase breakdown, in execution order.
	Phases []Phase
	// Leader is the root node of memory-model runs (-1 otherwise).
	Leader int32
}

// addPhase appends a named phase and folds it into the run totals.
func (r *Result) addPhase(name string, m phone.Meter) {
	r.Phases = append(r.Phases, Phase{Name: name, Meter: m})
	r.Meter.Add(m)
	r.Steps += m.Steps
}

// TransmissionsPerNode is the Figure 1/4 metric: data-carrying channel
// uses divided by n (a push–pull exchange counts once; see phone.Meter).
func (r *Result) TransmissionsPerNode() float64 {
	return phone.PerNode(r.Meter.Transmissions, r.N)
}

// PacketsPerNode counts per-direction packets divided by n.
func (r *Result) PacketsPerNode() float64 {
	return phone.PerNode(r.Meter.Packets, r.N)
}

// OpenedPerNode counts channel openings divided by n.
func (r *Result) OpenedPerNode() float64 {
	return phone.PerNode(r.Meter.Opened, r.N)
}

// String renders a compact human-readable run summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d steps=%d completed=%v msgs/node=%.2f packets/node=%.2f opened/node=%.2f",
		r.Algorithm, r.N, r.Steps, r.Completed,
		r.TransmissionsPerNode(), r.PacketsPerNode(), r.OpenedPerNode())
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "\n  %-12s steps=%-4d transmissions=%-8d packets=%-8d opened=%d",
			p.Name, p.Meter.Steps, p.Meter.Transmissions, p.Meter.Packets, p.Meter.Opened)
	}
	return b.String()
}
