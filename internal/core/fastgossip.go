package core

import (
	"sync/atomic"

	"gossip/internal/bitset"
	"gossip/internal/graph"
	"gossip/internal/msg"
	"gossip/internal/phone"
	"gossip/internal/walk"
)

// FastGossip runs Algorithm 1 (fast-gossiping adapted to random graphs,
// §3): Phase I pushes every message for a short distribution stage,
// Phase II collects and re-spreads messages with message-carrying random
// walks over several rounds, and Phase III finishes with push–pull until
// every node knows every message. The tracker is released for the next
// one (msg.Full.Release); use FastGossipOver to inspect it.
func FastGossip(g *graph.Graph, p FastGossipParams, seed uint64) *Result {
	res, tr := FastGossipOver(phone.NewNet(g, seed), p, SyncTransport)
	tr.Release()
	return res
}

// fgMode selects what one logical step of the fast-gossiping machine
// does. The schedule (which step runs in which mode, and the serial
// drain/activate/deactivate bookkeeping between steps) is driven by
// FastGossipOver; the shared mode field changes only between transport
// steps.
type fgMode uint8

const (
	// fgDistribute: every healthy node pushes its combined message
	// (Phase I).
	fgDistribute fgMode = iota
	// fgCoinflip: each node starts a random walk with probability
	// WalkProb (Phase II round opener).
	fgCoinflip
	// fgForward: each node forwards the head of its walk queue (Phase II
	// forwarding steps).
	fgForward
	// fgActivate: active nodes push their combined message; receivers
	// activate (Phase II activation broadcast).
	fgActivate
	// fgPushPull: plain push–pull exchange (Phase III).
	fgPushPull
)

// fgShared is the state all fast-gossiping machines share. tokens is the
// run's walk-token slab, and next its cursor, reset before each coin-flip
// step: a node starts at most one walk a round and every token is dead
// once the round's queues are reset, so n slots serve every round. Which
// slot a node gets depends on scheduling; no meter or set can tell.
type fgShared struct {
	nt     *phone.Net
	tr     *msg.Full
	p      FastGossipParams
	mode   fgMode
	tokens []*walk.Token
	next   atomic.Int32
}

// token returns the slab's next token, allocated on first use, rewritten
// whole as a copy of src with one move; a token is as wide as src.
func (sh *fgShared) token(src *bitset.Set) *walk.Token {
	i := sh.next.Add(1) - 1
	tok := sh.tokens[i]
	if tok == nil {
		tok = &walk.Token{Payload: bitset.New(src.Len())}
		sh.tokens[i] = tok
	}
	tok.Payload.CopyFrom(src)
	tok.Moves = 1
	return tok
}

// fgMachine is one fast-gossiping node. Walk tokens travel as transport
// payloads; a token that stops, reaches a failed node, or is pushed from
// an isolated node (DialUniform is NoDial) is dropped and waits in the
// slab for the next round.
type fgMachine struct {
	sh      *fgShared
	id      int32
	queue   walk.Queue
	active  bool
	gotPush bool // an activation push arrived this step
}

func (m *fgMachine) OnStep(step int32) (int32, any, any) {
	sh := m.sh
	if sh.nt.Failed[m.id] {
		return phone.NoDial, nil, nil
	}
	switch sh.mode {
	case fgDistribute:
		return phone.DialUniform, markerPayload, nil
	case fgPushPull:
		// Only Phase III pulls; the push-shaped phases answer nothing.
		return phone.DialUniform, markerPayload, markerPayload
	case fgCoinflip:
		if !sh.nt.RNG(m.id).Bernoulli(sh.p.WalkProb) {
			return phone.NoDial, nil, nil
		}
		return phone.DialUniform, sh.token(sh.tr.Row(m.id)), nil
	case fgForward:
		if m.queue.Empty() {
			return phone.NoDial, nil, nil
		}
		tok := m.queue.Pop()
		tok.Moves++
		return phone.DialUniform, tok, nil
	case fgActivate:
		if m.active {
			return phone.DialUniform, markerPayload, nil
		}
	}
	return phone.NoDial, nil, nil
}

func (m *fgMachine) Net() *phone.Net { return m.sh.nt }

func (m *fgMachine) OnReceive(from int32, payload any) {
	sh := m.sh
	switch sh.mode {
	case fgDistribute, fgActivate, fgPushPull:
		if sh.nt.Failed[m.id] {
			return
		}
		if sh.mode == fgActivate {
			m.gotPush = true
		}
		sh.tr.Transfer(from, m.id)
	case fgCoinflip, fgForward:
		// Failed nodes store nothing, and a stopped walk is not enqueued.
		tok := payload.(*walk.Token)
		if !sh.nt.Failed[m.id] && tok.Moves <= sh.p.MaxMoves {
			sh.tr.Meet(tok.Payload, m.id) // m' ← m' ∪ m_v, m_v ← m_v ∪ m'
			m.queue.Add(tok)
		}
	}
}

func (m *fgMachine) OnStepEnd(step int32) { m.sh.tr.Settle(m.id) }

// newFgMachines builds Algorithm 1's machine set over tr: the shared
// state, the machines in one slab, and the slab as phone.Machines.
func newFgMachines(nt *phone.Net, tr *msg.Full, p FastGossipParams) (*fgShared, []fgMachine, []phone.Machine) {
	n := nt.G.N()
	sh := &fgShared{nt: nt, tr: tr, p: p, tokens: make([]*walk.Token, n)}
	fms, ms := slab(n, func(v int32) fgMachine { return fgMachine{sh: sh, id: v} })
	return sh, fms, ms
}

// FastGossipOver runs Algorithm 1's node machines on the given transport,
// over a prepared substrate so callers can inject crash failures
// (nt.Failed) first: failed nodes never dial, never forward walks and
// never store messages. Under SyncTransport results are bit-identical to
// the historic substrate loops: walk tokens pushed in a step are merged
// into their hosts within that step (receivers in increasing id, senders
// in increasing id within a receiver), which is exactly when the old
// loop's start-of-next-step delivery pass observed them. On a seeded
// schedule the walks may interleave differently but the completion
// semantics are unchanged.
func FastGossipOver(nt *phone.Net, p FastGossipParams, tf TransportFactory) (*Result, *msg.Full) {
	n := nt.G.N()
	tr := msg.NewFull(n)
	sh, fms, ms := newFgMachines(nt, tr, p)
	t := tf(ms)
	res := &Result{Algorithm: "fast-gossiping", N: n, Leader: -1}

	step := int32(0)
	// walkStep runs one token step outside the tracker's round snapshot
	// (walk arrivals merge immediately, through Meet); trackedStep runs
	// one push-delivery step under it.
	walkStep := func(mode fgMode, m *phone.Meter) {
		sh.mode = mode
		step++
		if tl := t.Step(step); mode == fgPushPull {
			exchangeTally(m, tl)
		} else {
			m.Open(tl.Opened)
			m.Push(tl.Pushes)
		}
		m.Step()
	}
	trackedStep := func(mode fgMode, m *phone.Meter) {
		tr.BeginRound()
		walkStep(mode, m)
		tr.EndRound()
	}

	// Phase I: distribution.
	var mDist phone.Meter
	for i := 0; i < p.DistributionSteps; i++ {
		trackedStep(fgDistribute, &mDist)
	}
	res.addPhase("distribution", mDist)

	// Phase II: random walks. Each round: a coin-flip step starts walks,
	// WalkSteps forwarding steps move them, nodes still holding walks
	// activate and seed a BroadcastSteps-step push broadcast in which
	// receivers activate too, then everyone deactivates.
	var mWalk phone.Meter
	for r := 0; r < p.Rounds; r++ {
		sh.next.Store(0)
		walkStep(fgCoinflip, &mWalk)
		for i := 0; i < p.WalkSteps; i++ {
			walkStep(fgForward, &mWalk)
		}
		// Walks pushed in the final step have arrived; nodes holding
		// walks become active, all others inactive (only activation
		// steps read active, so this is the last round's deactivation
		// too), and the remaining walks are discarded.
		for v := range fms {
			fm := &fms[v]
			fm.active = !fm.queue.Empty() && !nt.Failed[fm.id]
			fm.queue.Reset()
		}
		for i := 0; i < p.BroadcastSteps; i++ {
			trackedStep(fgActivate, &mWalk)
			for v := range fms {
				fm := &fms[v]
				if fm.gotPush && !nt.Failed[fm.id] {
					fm.active = true
				}
				fm.gotPush = false
			}
		}
	}
	res.addPhase("random-walks", mWalk)

	// Phase III: plain push–pull, run to completion (§5: "the last phase
	// of each algorithm was run until the entire graph was informed"),
	// capped by Phase3MaxSteps as a disconnection guard.
	var mFinal phone.Meter
	for mFinal.Steps < p.Phase3MaxSteps && !tr.Complete() {
		trackedStep(fgPushPull, &mFinal)
	}
	res.addPhase("broadcast", mFinal)

	res.Completed = tr.Complete()
	return res, tr
}
