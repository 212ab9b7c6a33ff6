package phone

import (
	"gossip/internal/par"
	"gossip/internal/xrand"
)

// Machine is a per-node protocol state machine in the random phone call
// model. A Transport executes the same logical step for every machine:
//
//  1. OnStep: the node decides which neighbor to dial (NoDial keeps its
//     channel closed), which payload, if any, to push through the channel
//     it opens, and its answer: the payload it sends back through every
//     channel opened to it this step (the pull direction; nil sends
//     nothing). All per-step randomness is drawn from the node's private
//     stream, here or, for DialUniform (which a machine with a Net() *Net
//     method may return), by the transport right after OnStep, so the
//     dial phase parallelizes without changing results.
//  2. OnReceive (push direction): the node receives every payload pushed
//     through an incoming channel, callers in increasing id order (in a
//     seeded order on a seeded schedule).
//  3. OnReceive (pull direction): the caller receives its callee's answer.
//  4. OnStepEnd: the transition once the node's own exchange is done (in
//     Sync after every exchange; on a seeded schedule and in gossipd while
//     others may still exchange), so it writes only node-owned state,
//     node-partitioned state (msg tracker rows) and atomics, never a
//     payload it sent.
//
// As in the random phone call model, the answer is a step-start value
// that does not depend on the caller: no transport calls into a callee's
// machine to answer a channel, and a payload returned from OnStep must
// stay as it is until the node's next OnStep.
//
// A node may dial itself: a configuration-model graph keeps its loops,
// each an edge like any other in the uniform dial. Such a call costs what
// any call costs, one opened channel with its push and answer metered
// like any other, and the node plays both ends: it receives its own push
// and its own answer.
//
// A machine is only ever mutated through its own callbacks; machines
// communicate exclusively via payloads and explicitly-shared state that
// is safe under the concurrency each callback documents (e.g. the
// receiver-partitioned trackers of internal/msg).
type Machine interface {
	// OnStep opens the node's channel for this step: the callee id, NoDial
	// or DialUniform, the payload pushed through the channel (nil pushes
	// nothing; the channel still opens and may pull an answer; a push with
	// NoDial is dropped), and the answer to every channel opened to the
	// node this step (nil answers nothing). Its randomness is drawn here,
	// and DialUniform's right after it.
	OnStep(step int32) (dial int32, push, answer any)
	// OnReceive delivers a payload: a push from a caller, or the answer
	// of the node's own callee.
	OnReceive(from int32, payload any)
	// OnStepEnd runs the node's end-of-step transition, once its own
	// exchange of the step is done.
	OnStepEnd(step int32)
}

// StepTally is a Transport's accounting of one step, in protocol-neutral
// terms; algorithm drivers map it onto Meter conventions (an exchange is
// a channel that carried both a push and a response).
type StepTally struct {
	Opened    int64 // channels opened
	Pushes    int64 // non-nil push payloads sent
	Responses int64 // non-nil response payloads sent
}

// Transport executes machine steps. Step runs one full logical step for
// all machines and reports its tally. Transports are not safe for
// concurrent Step calls.
type Transport interface {
	N() int
	Step(step int32) StepTally
}

// Sync is the canonical in-memory transport: a synchronous shared-memory
// round built on Round's dial table. Each node receives the pushes of its
// callers in increasing caller id, then its callee's answer, and every
// node's OnStepEnd runs once all of that is delivered — the order the
// pre-seam simulator loops used per node — so any protocol whose per-node
// randomness comes from Net's private streams produces bit-identical
// results to those loops. NewSeeded builds one on a seeded schedule.
type Sync struct {
	ms    []Machine
	nt    *Net // the machines' Net, which DialUniform draws on
	round *Round
	push  []any // by caller
	resp  []any // by callee: the answer to every channel opened to it
	step  int32
	seed  uint64
	order []int32 // the step's seeded node order; nil on the canonical schedule
	// The phases' par.For bodies, bound once so Step allocates nothing: a
	// closure built per call would escape to par's pool, one per phase.
	dialFn, deliverFn, endFn, scheduleFn func(lo, hi int)
}

// NewSync returns a synchronous in-memory transport over the machines.
func NewSync(ms []Machine) *Sync {
	n := len(ms)
	s := &Sync{
		ms:    ms,
		nt:    netOf(ms),
		round: NewRound(n),
		push:  make([]any, n),
		resp:  make([]any, n),
	}
	s.dialFn, s.deliverFn, s.endFn, s.scheduleFn = s.dial, s.deliver, s.end, s.schedule
	return s
}

// NewSeeded returns a Sync on a seeded schedule, one of the orders a
// transport without a step barrier may deliver in: after Sync's dial, one
// parallel phase walks the nodes in a seeded order, and each receives its
// callers' pushes in a seeded order, then its callee's answer, then runs
// OnStepEnd while others may still receive. Both orders depend on (seed,
// step) alone, so a schedule replays at any GOMAXPROCS.
func NewSeeded(ms []Machine, seed uint64) *Sync {
	s := NewSync(ms)
	s.seed = seed
	s.order = make([]int32, len(ms))
	return s
}

// N returns the number of nodes.
func (s *Sync) N() int { return len(s.ms) }

// Step runs one synchronous step: parallel dial, delivery split by
// receiver, then end-of-step transitions (on a seeded schedule, one phase
// in the step's node order). No machine is read and written concurrently.
func (s *Sync) Step(step int32) StepTally {
	n := len(s.ms)
	s.step = step
	par.For(n, s.dialFn)
	s.round.BuildIncoming()

	var t StepTally
	in := s.round.inOff
	for v, u := range s.round.Out {
		if u >= 0 {
			t.Opened++
			if s.push[v] != nil {
				t.Pushes++
			}
		}
		if s.resp[v] != nil { // answered on each of v's incoming channels
			t.Responses += int64(in[v+1] - in[v])
		}
	}
	if s.order == nil {
		par.For(n, s.deliverFn)
		par.For(n, s.endFn)
		return t
	}
	rng := xrand.New(xrand.SeedFor(s.seed, uint64(step)))
	for i := range s.order {
		s.order[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	par.For(n, s.scheduleFn)
	return t
}

// dial runs OnStep on the nodes [lo, hi) in two passes. The first calls
// every OnStep and makes each DialUniform's draw (Graph.RandomNeighbor's)
// right after it, keeping the neighbour's index in the counting-sort
// cursor BuildIncoming has not yet claimed; the second loads every drawn
// neighbour from the adjacency, loads that no longer wait on one another.
func (s *Sync) dial(lo, hi int) {
	out, idx := s.round.Out, s.round.cursor
	for v := lo; v < hi; v++ {
		dial, push, answer := s.ms[v].OnStep(s.step)
		if dial == DialUniform {
			if s.nt == nil {
				panic(noNet)
			}
			if d := s.nt.G.Degree(int32(v)); d > 0 {
				idx[v] = int32(s.nt.rngs[v].Uint64n(uint64(d)))
			} else {
				dial = NoDial
			}
		}
		out[v] = dial
		s.push[v] = push
		s.resp[v] = answer
	}
	for v := lo; v < hi; v++ {
		if out[v] == DialUniform {
			out[v] = s.nt.G.Neighbor(int32(v), int(idx[v]))
		}
	}
}

// deliver delivers to the nodes [lo, hi) the pushes of their callers,
// then their callees' answers.
func (s *Sync) deliver(lo, hi int) {
	for v := lo; v < hi; v++ {
		m := s.ms[v]
		for _, u := range s.round.Incoming(int32(v)) {
			if p := s.push[u]; p != nil {
				m.OnReceive(u, p)
			}
		}
		if u := s.round.Out[v]; u >= 0 {
			if r := s.resp[u]; r != nil {
				m.OnReceive(u, r)
			}
		}
	}
}

func (s *Sync) end(lo, hi int) {
	for v := lo; v < hi; v++ {
		s.ms[v].OnStepEnd(s.step)
	}
}

// schedule runs the positions [lo, hi) of the step's node order: each
// node's callers, in an order drawn for (seed, step, node), deliver their
// pushes, then its callee answers, then it runs its OnStepEnd.
func (s *Sync) schedule(lo, hi int) {
	var rng xrand.RNG
	for _, v := range s.order[lo:hi] {
		callers := s.round.Incoming(v)
		rng.Reseed(xrand.SeedFor(s.seed, uint64(s.step), uint64(v)))
		rng.Shuffle(len(callers), func(i, j int) { callers[i], callers[j] = callers[j], callers[i] })
		s.deliver(int(v), int(v)+1)
		s.ms[v].OnStepEnd(s.step)
	}
}
