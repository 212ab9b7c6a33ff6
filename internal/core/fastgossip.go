package core

import (
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

type fgShared struct {
	nt   *phone.Net
	tr   *msg.Full
	p    FastGossipParams
	mode fgMode
}

// fgMachine is one fast-gossiping node. Walk tokens travel as transport
// payloads; each machine recycles tokens through its own pool, so the
// parallel dial and delivery phases never contend on an allocator. A
// token pushed from an isolated node (DialUniform is NoDial) is dropped.
type fgMachine struct {
	sh      *fgShared
	id      int32
	pool    *walk.Pool
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
		tok := m.pool.Get()
		tok.Payload.CopyFrom(sh.tr.Row(m.id))
		tok.Moves = 1
		return phone.DialUniform, tok, nil
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
		tok := payload.(*walk.Token)
		switch {
		case sh.nt.Failed[m.id]:
			m.pool.Put(tok) // failed nodes store nothing
		case tok.Moves <= sh.p.MaxMoves:
			sh.tr.Meet(tok.Payload, m.id) // m' ← m' ∪ m_v, m_v ← m_v ∪ m'
			m.queue.Add(tok)
		default:
			m.pool.Put(tok) // walk is stopped, not enqueued
		}
	}
}

func (m *fgMachine) OnStepEnd(step int32) { m.sh.tr.Settle(m.id) }

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
	sh := &fgShared{nt: nt, tr: tr, p: p}
	fms := make([]*fgMachine, n)
	ms := make([]phone.Machine, n)
	for v := 0; v < n; v++ {
		fms[v] = &fgMachine{sh: sh, id: int32(v), pool: walk.NewPool(n)}
		ms[v] = fms[v]
	}
	t := tf(ms)
	res := &Result{Algorithm: "fast-gossiping", N: n, Leader: -1}

	step := int32(0)
	// trackedStep runs one push-delivery step under the tracker's
	// round snapshot; walkStep runs one token step outside it (walk
	// arrivals merge immediately, through Meet).
	trackedStep := func(mode fgMode, m *phone.Meter) {
		sh.mode = mode
		step++
		tr.BeginRound()
		tl := t.Step(step)
		tr.EndRound()
		if mode == fgPushPull {
			exchangeTally(m, tl)
		} else {
			m.Open(tl.Opened)
			m.Push(tl.Pushes)
		}
		m.Step()
	}
	walkStep := func(mode fgMode, m *phone.Meter) {
		sh.mode = mode
		step++
		tl := t.Step(step)
		m.Open(tl.Opened)
		m.Push(tl.Pushes)
		m.Step()
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
		walkStep(fgCoinflip, &mWalk)
		for i := 0; i < p.WalkSteps; i++ {
			walkStep(fgForward, &mWalk)
		}
		// Walks pushed in the final step have arrived; nodes holding
		// walks become active and the remaining walks are discarded.
		for _, fm := range fms {
			if !fm.queue.Empty() {
				if !nt.Failed[fm.id] {
					fm.active = true
				}
				fm.pool.PutAll(fm.queue.Drain())
			}
		}
		for i := 0; i < p.BroadcastSteps; i++ {
			trackedStep(fgActivate, &mWalk)
			for _, fm := range fms {
				if fm.gotPush && !nt.Failed[fm.id] {
					fm.active = true
				}
				fm.gotPush = false
			}
		}
		// All nodes become inactive.
		for _, fm := range fms {
			fm.active = false
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
