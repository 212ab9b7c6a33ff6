package core

import (
	"sync/atomic"

	"gossip/internal/phone"
)

// This file holds the memory model's node state machine: the Phase I
// infrastructure broadcast (treeSet), which Phase III reuses. It runs on
// any phone.Transport; under SyncTransport it is bit-identical to the
// substrate loop it replaced (pinned by machine_golden_test.go and the
// cross-transport conformance suite). Phase II is not a machine: its
// outcome depends only on the recorded schedule and the failure mask, so
// gatherStructural (memory.go) computes it.

// treeToken is the payload sentinel of the infrastructure broadcast: the
// rumor whose spread builds the tree.
type treeTokenT struct{}

var treeToken any = treeTokenT{}

// treeSet runs the Phase I broadcast procedure of Algorithm 2 as per-node
// machines: a push stage in long-steps of 4 (nodes informed during
// long-step j contact 4 open-avoid neighbors during long-step j+1), then
// a pull stage in which uninformed nodes open-avoid once per step and any
// callee informed before the step answers.
//
// Shared state and why it is race-free under any transport phasing:
// tree.InformedAt[v] is written only by v's own OnReceive and read by
// v's own callbacks during a step (cross-node reads happen only between
// steps, in the driver); the informed count is atomic; per-node recorded
// edges live in per-machine buffers drained by the driver between steps.
type treeSet struct {
	nt       *phone.Net
	tree     *Tree
	nodes    []treeMachine
	ms       []phone.Machine
	pushExec int32 // executed push-stage steps (longSteps · 4)
	record   bool
	informed atomic.Int64
}

type treeMachine struct {
	set     *treeSet
	id      int32
	step    int32 // current step, stashed in OnStep for OnReceive
	pending []GatherEdge
}

func newTreeSet(nt *phone.Net, tree *Tree, pushExec int, record bool) *treeSet {
	s := &treeSet{nt: nt, tree: tree, pushExec: int32(pushExec), record: record}
	s.nodes, s.ms = slab(tree.N, func(v int32) treeMachine { return treeMachine{set: s, id: v} })
	s.informed.Store(1) // the root (counted even when failed, as the loop did)
	return s
}

// active reports whether the node pushes at the given push-stage step:
// the root during long-step 0, afterwards exactly the nodes first
// informed during the previous long-step.
func (m *treeMachine) active(step int32) bool {
	at := m.set.tree.InformedAt[m.id]
	ls := (step - 1) / 4
	if ls == 0 {
		return at == 0
	}
	return at >= 4*(ls-1)+1 && at <= 4*ls
}

func (m *treeMachine) OnStep(step int32) (int32, any, any) {
	m.step = step
	s := m.set
	if s.nt.Failed[m.id] {
		return phone.NoDial, nil, nil
	}
	if step <= s.pushExec {
		// Push-stage channels only carry the caller's push.
		if !m.active(step) {
			return phone.NoDial, nil, nil
		}
		return phone.DialAvoid, treeToken, nil // the fresh channel carries the token; NoDial drops it
	}
	// Pull stage: only uninformed nodes dial; the channel itself pulls,
	// and a node informed before this step answers with the token.
	if s.tree.InformedAt[m.id] >= 0 {
		return phone.NoDial, nil, treeToken
	}
	return phone.DialAvoid, nil, nil
}

func (m *treeMachine) Net() *phone.Net { return m.set.nt }

func (m *treeMachine) OnReceive(from int32, payload any) {
	s := m.set
	if m.step <= s.pushExec {
		// A push-stage contact: recorded as a gather edge whether or not
		// it informs (the parent stored the address either way).
		if s.record {
			m.pending = append(m.pending,
				GatherEdge{Child: m.id, Parent: from, T: m.step, Kind: PushContact})
		}
		if s.tree.InformedAt[m.id] < 0 && !s.nt.Failed[m.id] {
			s.tree.InformedAt[m.id] = m.step
			s.informed.Add(1)
		}
		return
	}
	// A pull-stage response: the uninformed dialer is informed by its
	// callee (failed nodes never dial, so no mask check is needed).
	if s.record {
		m.pending = append(m.pending,
			GatherEdge{Child: m.id, Parent: from, T: m.step, Kind: PullInform})
	}
	if s.tree.InformedAt[m.id] < 0 {
		s.tree.InformedAt[m.id] = m.step
		s.informed.Add(1)
	}
}

func (m *treeMachine) OnStepEnd(step int32) {}

// drainEdges appends the step's recorded edges to the tree in ascending
// node id. Within one step the order differs from the historic active-
// list order, but every consumer is order-insensitive inside a step
// (gather groups edges by equal T with snapshot semantics).
func (s *treeSet) drainEdges() {
	for v := range s.nodes {
		nd := &s.nodes[v] // a range copy would leave pending full
		if len(nd.pending) > 0 {
			s.tree.Edges = append(s.tree.Edges, nd.pending...)
			nd.pending = nd.pending[:0]
		}
	}
}
