package core

import (
	"sync/atomic"

	"gossip/internal/phone"
)

// This file holds the memory model's node state machines: the Phase I
// infrastructure broadcast (treeSet) and the Phase II gather replay
// (gatherSet). Both run on any phone.Transport; under SyncTransport they
// are bit-identical to the substrate loops they replaced (pinned by
// machine_golden_test.go and the cross-transport conformance suite).

// Payload sentinels. The tree token is the rumor of the infrastructure
// broadcast; the gather sentinels distinguish, at the receiving parent, a
// child's scheduled push-up (PullInform) from the response to the
// parent's own poll (PushContact).
type treeTokenT struct{}

type gatherPushUpT struct{}

type gatherRespT struct{}

var (
	treeToken    any = treeTokenT{}
	gatherPushUp any = gatherPushUpT{}
	gatherResp   any = gatherRespT{}
)

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
	nodes    []*treeMachine
	ms       []phone.Machine
	pushExec int32 // executed push-stage steps (longSteps · 4)
	record   bool
	informed atomic.Int64
}

type treeMachine struct {
	set     *treeSet
	id      int32
	step    int32 // current step, stashed in OnStep for OnOpen/OnReceive
	pending []GatherEdge
}

func newTreeSet(nt *phone.Net, tree *Tree, pushExec int, record bool) *treeSet {
	n := tree.N
	s := &treeSet{nt: nt, tree: tree, pushExec: int32(pushExec), record: record}
	s.nodes = make([]*treeMachine, n)
	s.ms = make([]phone.Machine, n)
	for v := 0; v < n; v++ {
		s.nodes[v] = &treeMachine{set: s, id: int32(v)}
		s.ms[v] = s.nodes[v]
	}
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

func (m *treeMachine) OnStep(step int32) (int32, any) {
	m.step = step
	s := m.set
	if s.nt.Failed[m.id] {
		return phone.NoDial, nil
	}
	if step <= s.pushExec {
		if !m.active(step) {
			return phone.NoDial, nil
		}
		u := s.nt.OpenAvoid(m.id)
		if u < 0 {
			return phone.NoDial, nil
		}
		return u, treeToken // the fresh channel carries the token
	}
	// Pull stage: only uninformed nodes dial; the channel itself pulls.
	if s.tree.InformedAt[m.id] >= 0 {
		return phone.NoDial, nil
	}
	u := s.nt.OpenAvoid(m.id)
	if u < 0 {
		return phone.NoDial, nil
	}
	return u, nil
}

func (m *treeMachine) OnOpen(from int32) any {
	s := m.set
	if m.step <= s.pushExec {
		return nil // push-stage channels only carry the caller's push
	}
	if s.nt.Failed[m.id] {
		return nil
	}
	// Snapshot predicate: answer only if informed strictly before this
	// step, so informs landing this step never leak into responses.
	if at := s.tree.InformedAt[m.id]; at >= 0 && at < m.step {
		return treeToken
	}
	return nil
}

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
	for _, nd := range s.nodes {
		if len(nd.pending) > 0 {
			s.tree.Edges = append(s.tree.Edges, nd.pending...)
			nd.pending = nd.pending[:0]
		}
	}
}

// gatherSet replays a tree's Phase II schedule as machines: at gather
// step s = Steps-T+1 every Phase I dial made at step T is re-opened by
// its original dialer — the parent polls its push-stage children
// (PushContact), pull-informed children push their content up
// (PullInform). The dial schedule and the polls each child must answer
// are carried by phone.DialPlans built from the recorded edges.
type gatherSet struct {
	tree   *Tree
	failed []bool
	out    *phone.DialPlan // per-opener channel schedule; Tag = EdgeKind
	polls  *phone.DialPlan // per-child expected polls (PushContact only)
	nodes  []*gatherMachine
	ms     []phone.Machine
}

type gatherMachine struct {
	set     *gatherSet
	id      int32
	step    int32
	pollers []phone.PlannedDial // this step's polls to answer, set in OnStep
	pending []GatherEdge        // realized transfers, recorded by the parent
}

// gatherPlans builds the replay schedules from the recorded edges
// (ascending T, so reversed iteration yields ascending gather steps).
// Each node opened at most one channel per Phase I step, so each node
// opens at most one channel per gather step.
func gatherPlans(tree *Tree) (out, polls *phone.DialPlan) {
	out = phone.NewDialPlan(tree.N)
	polls = phone.NewDialPlan(tree.N)
	for i := len(tree.Edges) - 1; i >= 0; i-- {
		e := tree.Edges[i]
		s := tree.MirrorStep(e.T)
		if e.Kind == PushContact {
			out.Add(e.Parent, phone.PlannedDial{Step: s, Peer: e.Child, Tag: uint8(PushContact)})
			polls.Add(e.Child, phone.PlannedDial{Step: s, Peer: e.Parent, Tag: uint8(PushContact)})
		} else {
			out.Add(e.Child, phone.PlannedDial{Step: s, Peer: e.Parent, Tag: uint8(PullInform)})
		}
	}
	return out, polls
}

func newGatherSet(tree *Tree, failed []bool) *gatherSet {
	out, polls := gatherPlans(tree)
	s := &gatherSet{tree: tree, failed: failed, out: out, polls: polls}
	s.nodes = make([]*gatherMachine, tree.N)
	s.ms = make([]phone.Machine, tree.N)
	for v := 0; v < tree.N; v++ {
		s.nodes[v] = &gatherMachine{set: s, id: int32(v)}
		s.ms[v] = s.nodes[v]
	}
	return s
}

func (m *gatherMachine) OnStep(step int32) (int32, any) {
	m.step = step
	s := m.set
	// Advance both cursors every step so failed nodes stay aligned.
	m.pollers = s.polls.TakeStep(m.id, step)
	ds := s.out.TakeStep(m.id, step)
	if s.failed[m.id] || len(ds) == 0 {
		return phone.NoDial, nil
	}
	if len(ds) > 1 {
		panic("core: gather schedule opens two channels in one step")
	}
	d := ds[0]
	if EdgeKind(d.Tag) == PullInform {
		// The child re-opens the channel it was informed through and
		// pushes its content up — unless the parent failed (the channel
		// still opens, no data crosses).
		if !s.failed[d.Peer] {
			return d.Peer, gatherPushUp
		}
		return d.Peer, nil
	}
	// PushContact: the parent polls; the response carries the data.
	return d.Peer, nil
}

func (m *gatherMachine) OnOpen(from int32) any {
	s := m.set
	if s.failed[m.id] {
		return nil
	}
	// Answer only this step's scheduled polls — an incoming push-up
	// channel (where this node is the parent) pulls nothing.
	for _, pd := range m.pollers {
		if pd.Peer == from {
			return gatherResp
		}
	}
	return nil
}

func (m *gatherMachine) OnReceive(from int32, payload any) {
	kind := PushContact
	if payload == gatherPushUp {
		kind = PullInform
	}
	m.pending = append(m.pending, GatherEdge{
		Child: from, Parent: m.id,
		T:    m.set.tree.Steps - m.step + 1,
		Kind: kind,
	})
}

func (m *gatherMachine) OnStepEnd(step int32) {}

// drainRealized collects the step's realized transfers in ascending
// parent id (order within a step is immaterial to the backward
// reachability pass).
func (s *gatherSet) drainRealized(dst []GatherEdge) []GatherEdge {
	for _, nd := range s.nodes {
		if len(nd.pending) > 0 {
			dst = append(dst, nd.pending...)
			nd.pending = nd.pending[:0]
		}
	}
	return dst
}

// gatherOver replays the tree's Phase II over the given transport and
// returns the gather outcome. Under SyncTransport it is bit-identical to
// the pure replay analysis (gatherStructural); the conformance suite
// additionally pins AsyncTransport to the same results.
func gatherOver(tree *Tree, failed []bool, tf TransportFactory) *GatherPlan {
	set := newGatherSet(tree, failed)
	t := tf(set.ms)
	defer t.Close()

	var m phone.Meter
	realized := make([]GatherEdge, 0, len(tree.Edges))
	d := &Driver{
		T:        t,
		MaxSteps: int(tree.Steps), // Phase II mirrors Phase I step for step
		AfterStep: func(_ int32, tl phone.StepTally) {
			m.Open(tl.Opened)
			m.Push(tl.Pushes + tl.Responses)
			realized = set.drainRealized(realized)
		},
	}
	d.Run()
	m.Steps = int(tree.Steps)
	return planFromRealized(tree, realized, failed, m)
}
