package phone

import "fmt"

// PlannedDial is one scheduled channel opening: at Step the owning node
// opens a channel to Peer. Tag is protocol-defined — the memory model
// stores the gather-edge kind in it, so a machine replaying the schedule
// knows whether the channel is a poll or a push.
type PlannedDial struct {
	Step int32
	Peer int32
	Tag  uint8
}

// DialPlan is a deterministic per-node dial schedule — the seam carrier
// for replayed communication patterns. Phase II of the memory model
// (Algorithm 2) replays Phase I's gather edges in mirrored step order;
// the plan holds each node's openings (and, symmetrically, the polls it
// should answer) so the machines need no shared mutable schedule state.
//
// Entries are appended per node in non-decreasing step order and consumed
// by per-node forward cursors. Every cursor is touched only by its own
// node's machine callbacks, so any Transport phasing is race-free.
type DialPlan struct {
	entries [][]PlannedDial
	cursor  []int
}

// NewDialPlan returns an empty plan for n nodes.
func NewDialPlan(n int) *DialPlan {
	return &DialPlan{
		entries: make([][]PlannedDial, n),
		cursor:  make([]int, n),
	}
}

// Add appends d to node v's schedule. Per-node steps must be
// non-decreasing — the plan is consumed by a forward cursor.
func (p *DialPlan) Add(v int32, d PlannedDial) {
	es := p.entries[v]
	if len(es) > 0 && es[len(es)-1].Step > d.Step {
		panic(fmt.Sprintf("phone: dial plan for node %d not in step order (%d after %d)",
			v, d.Step, es[len(es)-1].Step))
	}
	p.entries[v] = append(es, d)
}

// TakeStep returns node v's dials scheduled exactly at step, advancing
// v's cursor past them (and past any stale earlier entries, so a node
// that skipped steps — e.g. a failed node — stays aligned). Steps must be
// queried in increasing order per node.
func (p *DialPlan) TakeStep(v int32, step int32) []PlannedDial {
	es := p.entries[v]
	c := p.cursor[v]
	for c < len(es) && es[c].Step < step {
		c++
	}
	lo := c
	for c < len(es) && es[c].Step == step {
		c++
	}
	p.cursor[v] = c
	return es[lo:c]
}

// Reset rewinds every cursor so the plan can be replayed.
func (p *DialPlan) Reset() {
	for i := range p.cursor {
		p.cursor[i] = 0
	}
}
