package core

import (
	"gossip/internal/graph"
	"gossip/internal/msg"
	"gossip/internal/phone"
)

// PushPull runs the simple push–pull gossiping baseline (Algorithm 4 of
// the paper's appendix): in every step every node opens a channel to a
// uniformly random neighbor and all messages are exchanged through all
// open channels, until every node knows every message.
//
// maxSteps caps the run (0 means 64·log n, far beyond completion on the
// connected graphs of the study). The tracker is released for the next
// one (msg.Full.Release); use PushPullOver to inspect it.
func PushPull(g *graph.Graph, seed uint64, maxSteps int) *Result {
	res, tr := PushPullOver(phone.NewNet(g, seed), maxSteps, SyncTransport)
	tr.Release()
	return res
}

// PushPullOver runs the baseline's node machines on the given transport,
// over a prepared substrate so callers can inject crash failures first.
// The completion predicate stays "every node knows every message", so
// runs with failed nodes end at the cap. SyncTransport gives the
// reference results; under other transports the delivered state matches
// while step-internal scheduling may differ.
//
// Meter conventions per step (see exchangeTally): every open channel is
// one opening; a channel whose callee answered is one exchange; a channel
// whose callee crashed carries a lone push.
func PushPullOver(nt *phone.Net, maxSteps int, tf TransportFactory) (*Result, *msg.Full) {
	tr := msg.NewFull(nt.G.N())
	return pushPull(nt, maxSteps, tf, tr), tr
}

// pushPull is the one push–pull loop; tr (msg.Full or msg.Sampled)
// observes the exchanges and decides completion. The meter comes from
// the transport's tally, so it is the same whichever tracker observes.
func pushPull(nt *phone.Net, maxSteps int, tf TransportFactory, tr roundTracker) *Result {
	n := nt.G.N()
	if maxSteps <= 0 {
		maxSteps = 64 * ceil(Logn(n))
	}
	t := tf(exchangeMachines(nt, tr))
	res := &Result{Algorithm: "push-pull", N: n, Leader: -1}
	var m phone.Meter

	d := &Driver{
		T:          t,
		MaxSteps:   maxSteps,
		Done:       tr.Complete,
		BeforeStep: func(int32) { tr.BeginRound() },
		AfterStep: func(_ int32, tl phone.StepTally) {
			tr.EndRound()
			exchangeTally(&m, tl)
			m.Step()
		},
	}
	d.Run()

	res.Completed = tr.Complete()
	res.addPhase("push-pull", m)
	return res
}

// exchangeTally maps a push–pull step's transport tally onto the meter:
// the responded channels are full exchanges, the rest (crashed callees)
// lone pushes.
func exchangeTally(m *phone.Meter, tl phone.StepTally) {
	m.Open(tl.Opened)
	m.Exchange(tl.Responses)
	m.Push(tl.Opened - tl.Responses)
}
