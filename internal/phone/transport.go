package phone

import (
	"sync/atomic"

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
//     stream, here or, for DialUniform and DialAvoid (which a machine
//     with a Net() *Net method may return), by the transport right after
//     OnStep, so the dial phase parallelizes without changing results.
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
	// OnStep opens the node's channel for this step: the callee id, NoDial,
	// DialUniform or DialAvoid, the payload pushed through the channel (nil
	// pushes nothing; the channel still opens and may pull an answer; a
	// push with NoDial is dropped), and the answer to every channel opened
	// to the node this step (nil answers nothing). Its randomness is drawn
	// here, and DialUniform's and DialAvoid's right after it.
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
// results to those loops. A step fewer than sparseBelow nodes dial skips
// the caller index: deliverSparse delivers it in the same order from the
// step's dialer lists. NewSeeded builds one on a seeded schedule, which
// never does, so conformance checks one path against the other.
type Sync struct {
	ms    []Machine
	nt    *Net // the machines' Net, which DialUniform and DialAvoid draw on
	round *Round
	push  []any // by caller
	resp  []any // by callee: the answer to every channel opened to it
	step  int32
	seed  uint64
	order []int32 // the step's seeded node order; nil on the canonical schedule

	sparseBelow               int64        // n/8, or 0 on a seeded schedule
	opened, pushes, responses atomic.Int64 // the step's tally, added by chunk
	// The phases' par.For bodies, bound once so Step allocates nothing: a
	// closure built per call would escape to par's pool, one per phase.
	dialFn, deliverFn, sparseFn, endFn, scheduleFn func(lo, hi int)
}

// NewSync returns a synchronous in-memory transport over the machines.
func NewSync(ms []Machine) *Sync {
	n := len(ms)
	s := &Sync{
		ms:          ms,
		nt:          netOf(ms),
		round:       NewRound(n),
		push:        make([]any, n),
		resp:        make([]any, n),
		sparseBelow: int64(n / 8),
	}
	s.dialFn, s.deliverFn, s.sparseFn, s.endFn, s.scheduleFn = s.dial, s.deliver, s.deliverSparse, s.end, s.schedule
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
	s.sparseBelow = 0
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
	switch {
	case s.opened.Load() < s.sparseBelow:
		s.round.built = false
		par.For(n, s.sparseFn)
		par.For(n, s.endFn)
	case s.order == nil:
		s.round.BuildIncoming()
		par.For(n, s.deliverFn)
		par.For(n, s.endFn)
	default:
		s.round.BuildIncoming()
		rng := xrand.New(xrand.SeedFor(s.seed, uint64(step)))
		for i := range s.order {
			s.order[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		par.For(n, s.scheduleFn)
	}
	return StepTally{Opened: s.opened.Swap(0), Pushes: s.pushes.Swap(0), Responses: s.responses.Swap(0)}
}

// dial runs OnStep on the nodes [lo, hi) in two passes. The first calls
// every OnStep and makes each DialUniform's and DialAvoid's first draw
// right after it, keeping the row index in next; the second loads every
// drawn neighbour, loads that no longer wait on one another, drawing
// again only where DialAvoid's first draw is remembered. It tallies the
// chunk's channels and lists its dialers for deliverSparse.
func (s *Sync) dial(lo, hi int) {
	r := s.round
	for v := lo; v < hi; v++ {
		dial, push, answer := s.ms[v].OnStep(s.step)
		if drawn(dial) {
			dial, r.next[v] = s.nt.draw(int32(v), dial)
		}
		r.Out[v], s.push[v], s.resp[v] = dial, push, answer
	}
	for v := lo; v < hi; v++ {
		switch r.Out[v] {
		case DialUniform:
			r.Out[v] = s.nt.G.Neighbor(int32(v), int(r.next[v]))
		case DialAvoid:
			r.Out[v] = s.nt.avoid(int32(v), r.next[v])
		}
	}
	k, pushes := lo, int64(0)
	for v := lo; v < hi; v++ {
		if r.Out[v] >= 0 {
			r.inFlat[k] = int32(v)
			k++
			if s.push[v] != nil {
				pushes++
			}
		}
	}
	r.inOff[lo], r.next[lo] = int32(k-lo), int32(hi)
	s.opened.Add(int64(k - lo))
	s.pushes.Add(pushes)
}

func (s *Sync) deliver(lo, hi int) { s.responses.Add(s.receive(lo, hi)) }

// receive delivers to the nodes [lo, hi) the pushes of their callers, in
// Incoming's order, then their callees' answers, and counts the answers.
func (s *Sync) receive(lo, hi int) (answers int64) {
	for v := lo; v < hi; v++ {
		m := s.ms[v]
		for _, u := range s.round.Incoming(int32(v)) {
			if p := s.push[u]; p != nil {
				m.OnReceive(u, p)
			}
		}
		if u := s.round.Out[v]; u >= 0 && s.resp[u] != nil {
			m.OnReceive(u, s.resp[u])
			answers++
		}
	}
	return answers
}

// deliverSparse delivers a sparse step to the nodes [lo, hi), in time
// linear in its dialers, which dial listed: chunk [l, h) its k dialers
// at inFlat[l:l+k], k at inOff[l] and h at next[l]. Every push, by
// increasing caller id, comes before every answer: deliver's order.
func (s *Sync) deliverSparse(lo, hi int) {
	r := s.round
	var t int64
	for _, answers := range [2]bool{false, true} {
		for l := 0; l < len(s.ms); l = int(r.next[l]) {
			for _, v := range r.inFlat[l : l+int(r.inOff[l])] {
				switch u := r.Out[v]; {
				case !answers && lo <= int(u) && int(u) < hi && s.push[v] != nil:
					s.ms[u].OnReceive(v, s.push[v])
				case answers && lo <= int(v) && int(v) < hi && s.resp[u] != nil:
					s.ms[v].OnReceive(u, s.resp[u])
					t++
				}
			}
		}
	}
	s.responses.Add(t)
}

func (s *Sync) end(lo, hi int) {
	for v := lo; v < hi; v++ {
		s.ms[v].OnStepEnd(s.step)
	}
}

// schedule runs the positions [lo, hi) of the step's node order: each
// node's callers, in an order drawn for (seed, step, node), deliver their
// pushes, then its callee answers, then it runs its OnStepEnd. Fewer than
// two callers have one order, which draws nothing.
func (s *Sync) schedule(lo, hi int) {
	var rng xrand.RNG
	var t int64
	for _, v := range s.order[lo:hi] {
		if callers := s.round.Incoming(v); len(callers) > 1 {
			rng.Reseed(xrand.SeedFor(s.seed, uint64(s.step), uint64(v)))
			rng.Shuffle(len(callers), func(i, j int) { callers[i], callers[j] = callers[j], callers[i] })
		}
		t += s.receive(int(v), int(v)+1)
		s.ms[v].OnStepEnd(s.step)
	}
	s.responses.Add(t)
}
