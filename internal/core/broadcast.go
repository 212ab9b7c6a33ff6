package core

import (
	"sync/atomic"

	"gossip/internal/graph"
	"gossip/internal/phone"
)

// BroadcastMode selects the transmission rule of a single-message
// broadcast baseline.
type BroadcastMode int

const (
	// PushOnly: informed nodes push the message to their callee.
	PushOnly BroadcastMode = iota
	// PullOnly: every node dials; an informed callee transmits back.
	PullOnly
	// PushAndPull: both rules in every step (Karp et al. style, without
	// the termination protocol — the paper's baselines stop on global
	// completion, which the simulator can observe).
	PushAndPull
)

func (m BroadcastMode) String() string {
	switch m {
	case PushOnly:
		return "push"
	case PullOnly:
		return "pull"
	case PushAndPull:
		return "push-pull"
	case MemoryBroadcastMode:
		return "memory-broadcast"
	}
	return "unknown"
}

// BroadcastResult reports a single-message dissemination run. These
// baselines reproduce the context results the paper builds on: push-only
// completes in Θ(log n) rounds with Θ(n·log n) transmissions, and the
// broadcast communication advantage available in complete graphs is not
// available in sparse random graphs ([19], [34]).
type BroadcastResult struct {
	Mode      BroadcastMode
	N         int
	Steps     int
	Completed bool
	// Transmissions counts transmissions of the message itself (the Karp
	// et al. accounting): each push by an informed node and each pull
	// response by an informed callee is one transmission.
	Transmissions int64
	// Opened counts channel openings.
	Opened int64
	// InformedAt[v] is the step at which v became informed (-1 if never).
	InformedAt []int32
}

// TransmissionsPerNode is copies of the message sent, divided by n.
func (r *BroadcastResult) TransmissionsPerNode() float64 {
	return phone.PerNode(r.Transmissions, r.N)
}

// broadcastMachine is the single-message broadcast as a node state
// machine. Every healthy node dials a uniformly random neighbor each
// step; an informed node pushes the rumor (push modes) and answers
// incoming channels with it (pull modes). "Informed" uses the snapshot
// rule informedAt < step, so receipt handling stays order-independent
// within a step.
type broadcastMachine struct {
	set        *BroadcastSet
	id         int32
	step       int32 // current step, set in OnStep
	informedAt int32 // -1 until informed
	rumor      any
}

// BroadcastSet is a single-message broadcast as a set of per-node
// machines sharing one atomic informed count — the machine form of
// Broadcast, exposed so external drivers (the seeded transport example,
// internal/gossipd's loopback TCP nodes) can run the protocol with a
// real payload. Each machine is only mutated through its own callbacks;
// the shared count is atomic, so any Transport phasing is race-free.
type BroadcastSet struct {
	nt       *phone.Net
	mode     BroadcastMode
	informed atomic.Int64
	nodes    []broadcastMachine
	ms       []phone.Machine
}

// NewBroadcastSet builds the broadcast machines over a prepared
// substrate, with src initially informed (at step 0) and carrying the
// given payload. A nil payload broadcasts a contentless marker (the
// simulator's usual mode); gossipd passes real bytes.
func NewBroadcastSet(nt *phone.Net, src int32, mode BroadcastMode, payload any) *BroadcastSet {
	if payload == nil {
		payload = markerPayload
	}
	s := &BroadcastSet{nt: nt, mode: mode}
	s.nodes, s.ms = slab(nt.G.N(), func(v int32) broadcastMachine { return broadcastMachine{set: s, id: v, informedAt: -1} })
	s.nodes[src].informedAt = 0
	s.nodes[src].rumor = payload
	s.informed.Store(1)
	return s
}

// Machines returns the per-node machines, by node id.
func (s *BroadcastSet) Machines() []phone.Machine { return s.ms }

// Machine returns node v's machine.
func (s *BroadcastSet) Machine(v int32) phone.Machine { return &s.nodes[v] }

// InformedCount returns the number of informed nodes (atomic; safe to
// poll while a transport is running).
func (s *BroadcastSet) InformedCount() int { return int(s.informed.Load()) }

// Complete reports whether every node is informed.
func (s *BroadcastSet) Complete() bool { return s.informed.Load() == int64(len(s.nodes)) }

// InformedAt returns the step at which v was informed (-1 if not yet).
// Only read it while no transport step is in flight.
func (s *BroadcastSet) InformedAt(v int32) int32 { return s.nodes[v].informedAt }

// PayloadAt returns the rumor payload v holds (nil if uninformed; the
// marker payload when the set was built without one).
func (s *BroadcastSet) PayloadAt(v int32) any { return s.nodes[v].rumor }

func (b *broadcastMachine) OnStep(step int32) (int32, any, any) {
	b.step = step
	if b.set.nt.Failed[b.id] {
		return phone.NoDial, nil, nil
	}
	if b.informedAt < 0 || b.informedAt >= step { // not informed before this step
		return phone.DialUniform, nil, nil
	}
	var push, answer any
	if b.set.mode == PushOnly || b.set.mode == PushAndPull {
		push = b.rumor
	}
	if b.set.mode == PullOnly || b.set.mode == PushAndPull {
		answer = b.rumor
	}
	return phone.DialUniform, push, answer
}

func (b *broadcastMachine) Net() *phone.Net { return b.set.nt }

func (b *broadcastMachine) OnReceive(from int32, payload any) {
	if b.set.nt.Failed[b.id] {
		return
	}
	if b.informedAt < 0 {
		b.informedAt = b.step
		b.rumor = payload
		b.set.informed.Add(1)
	}
}

func (b *broadcastMachine) OnStepEnd(step int32) {}

// Broadcast disseminates a single message from src over g under the given
// mode, running until all nodes are informed or maxSteps elapses
// (0 means 64·log n).
func Broadcast(g *graph.Graph, src int32, mode BroadcastMode, seed uint64, maxSteps int) *BroadcastResult {
	return BroadcastOver(g, src, mode, seed, maxSteps, SyncTransport)
}

// BroadcastOver runs the broadcast's node machines on the given
// transport; under SyncTransport results are bit-identical to the
// historic substrate loop.
func BroadcastOver(g *graph.Graph, src int32, mode BroadcastMode, seed uint64, maxSteps int, tf TransportFactory) *BroadcastResult {
	n := g.N()
	if maxSteps <= 0 {
		maxSteps = 64 * ceil(Logn(n))
	}
	set := NewBroadcastSet(phone.NewNet(g, seed), src, mode, nil)
	t := tf(set.Machines())
	res := &BroadcastResult{Mode: mode, N: n}

	d := &Driver{
		T:        t,
		MaxSteps: maxSteps,
		Done:     set.Complete,
		AfterStep: func(_ int32, tl phone.StepTally) {
			res.Opened += tl.Opened
			res.Transmissions += tl.Pushes + tl.Responses
			res.Steps++
		},
	}
	d.Run()

	res.Completed = set.Complete()
	res.InformedAt = make([]int32, n)
	for v := int32(0); int(v) < n; v++ {
		res.InformedAt[v] = set.InformedAt(v)
	}
	return res
}
