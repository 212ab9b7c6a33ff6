package phone

import "gossip/internal/par"

// Machine is a per-node protocol state machine in the random phone call
// model. A Transport executes the same logical step for every machine:
//
//  1. OnStep: the node decides which neighbor to dial (NoDial keeps its
//     channel closed) and which payload, if any, to push through the
//     channel it opens. All per-step randomness is drawn from the node's
//     private stream, here or, for DialUniform (which a machine with a
//     Net() *Net method may return), by the transport right after OnStep,
//     so the dial phase parallelizes without changing results.
//  2. OnReceive (push direction): the node receives every payload pushed
//     through an incoming channel, callers in increasing id order.
//  3. OnOpen: for every incoming channel, the node may answer with a
//     response payload (the pull direction); nil sends nothing. OnOpen
//     must be read-only — transports may invoke it concurrently with
//     other nodes' OnOpen and must see round-start state, so protocols
//     defer state changes to OnStepEnd or use snapshot predicates.
//  4. OnReceive (pull direction): the caller receives the response.
//  5. OnStepEnd: the transition once the node's own exchange is done (in
//     Sync after every exchange; in Async and gossipd while others may
//     still exchange), so it writes only node-owned state, node-partitioned
//     state (msg tracker rows) and atomics, never a payload it sent.
//
// A node may dial itself: a configuration-model graph keeps its loops,
// each an edge like any other in the uniform dial. Such a call costs what
// any call costs, one opened channel with its push and response metered
// like any other, and the node plays both ends: it receives its own push,
// answers itself in OnOpen and receives the response.
//
// A machine is only ever mutated through its own callbacks; machines
// communicate exclusively via payloads and explicitly-shared state that
// is safe under the concurrency each callback documents (e.g. the
// receiver-partitioned trackers of internal/msg).
type Machine interface {
	// OnStep opens the node's channel for this step: the callee id, NoDial
	// or DialUniform, and the payload pushed through the channel (nil
	// pushes nothing; the channel still opens and may pull a response; a
	// push with NoDial is dropped). Its randomness is drawn here, and
	// DialUniform's right after it.
	OnStep(step int32) (dial int32, push any)
	// OnOpen answers an incoming channel from the given caller with a
	// response payload, or nil. It must not mutate machine state.
	OnOpen(from int32) any
	// OnReceive delivers a payload: a push from a caller, or a response
	// from the node's own callee.
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
// all machines and reports its tally; Close releases transport resources
// (goroutines, listeners). Transports are not safe for concurrent Step
// calls.
type Transport interface {
	N() int
	Step(step int32) StepTally
	Close() error
}

// Sync is the canonical in-memory transport: a synchronous shared-memory
// round built on Round's dial table. Its delivery order is the fixed
// order the pre-seam simulator loops used — pushes delivered to receivers
// in increasing receiver id with callers in increasing caller id, then
// responses computed and delivered in increasing caller id — so any
// protocol whose per-node randomness comes from Net's private streams
// produces bit-identical results to those loops.
type Sync struct {
	ms    []Machine
	nt    *Net // the machines' Net, which DialUniform draws on
	round *Round
	push  []any
	resp  []any
	step  int32
	// The phases' par.For bodies, bound once so Step allocates nothing: a
	// closure built per call would escape to par's pool, one per phase.
	dialFn, pushFn, openFn, replyFn, endFn func(lo, hi int)
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
	s.dialFn, s.pushFn, s.openFn, s.replyFn, s.endFn = s.dial, s.deliverPushes, s.open, s.deliverReplies, s.end
	return s
}

// N returns the number of nodes.
func (s *Sync) N() int { return len(s.ms) }

// Step runs one synchronous step: parallel dial, push delivery split by
// receiver, read-only response computation, response delivery split by
// caller, then end-of-step transitions. The phases are separated so no
// machine is ever read and written concurrently.
func (s *Sync) Step(step int32) StepTally {
	n := len(s.ms)
	s.step = step
	s.round.Reset()
	par.For(n, s.dialFn)
	s.round.BuildIncoming()

	var t StepTally
	for v, u := range s.round.Out {
		if u >= 0 {
			t.Opened++
			if s.push[v] != nil {
				t.Pushes++
			}
		}
	}
	par.For(n, s.pushFn)
	// Pull direction: compute every response first (OnOpen is read-only,
	// so concurrent calls into one callee are safe), then deliver split
	// by caller.
	par.For(n, s.openFn)
	for _, r := range s.resp {
		if r != nil {
			t.Responses++
		}
	}
	par.For(n, s.replyFn)
	par.For(n, s.endFn)
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
		dial, push := s.ms[v].OnStep(s.step)
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
	}
	for v := lo; v < hi; v++ {
		if out[v] == DialUniform {
			out[v] = s.nt.G.Neighbor(int32(v), int(idx[v]))
		}
	}
}

// deliverPushes delivers the pushes to the receivers [lo, hi).
func (s *Sync) deliverPushes(lo, hi int) {
	for v := lo; v < hi; v++ {
		for _, u := range s.round.Incoming(int32(v)) {
			if p := s.push[u]; p != nil {
				s.ms[v].OnReceive(u, p)
			}
		}
	}
}

// open computes the responses to the calls of the callers [lo, hi); resp
// is all nil until then, as deliverReplies leaves it.
func (s *Sync) open(lo, hi int) {
	for v := lo; v < hi; v++ {
		if u := s.round.Out[v]; u >= 0 {
			s.resp[v] = s.ms[u].OnOpen(int32(v))
		}
	}
}

// deliverReplies delivers the responses to the callers [lo, hi).
func (s *Sync) deliverReplies(lo, hi int) {
	for v := lo; v < hi; v++ {
		if r := s.resp[v]; r != nil {
			s.ms[v].OnReceive(s.round.Out[v], r)
			s.resp[v] = nil
		}
	}
}

func (s *Sync) end(lo, hi int) {
	for v := lo; v < hi; v++ {
		s.ms[v].OnStepEnd(s.step)
	}
}

// Close is a no-op for the in-memory transport.
func (s *Sync) Close() error { return nil }
