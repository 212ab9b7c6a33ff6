package core

import (
	"sync/atomic"

	"gossip/internal/graph"
	"gossip/internal/phone"
)

// The median-counter broadcast of Karp, Schindelhauer, Shenker and Vöcking
// (FOCS'00) — the algorithm behind the O(n·loglog n)-transmission
// broadcast bound on complete graphs that the reproduced paper repeatedly
// contrasts gossiping against. Elsässer [19] showed this bound is NOT
// achievable on sparse random graphs; AblationMedianCounter demonstrates
// both facts empirically.
//
// Player states (following §3 of Karp et al.):
//
//	A:  uninformed; pulls every round.
//	B:  informed, with an age counter m. Pushes and pulls every round. The
//	    counter increments when, in one round, the player hears the rumor
//	    from more players in state C or with counters larger than its own
//	    than from players with counters at most its own (the "median"
//	    rule). A player in state B for ctrMax consecutive rounds also
//	    moves on (the age guard).
//	C:  still transmits for ctrMax further rounds, then switches to D.
//	D:  stops transmitting the rumor (channels may still open; the model
//	    requires it, and openings are metered separately).
//
// An A-player that hears the rumor only from C-players jumps directly to
// C, which is what shuts the protocol down in O(loglog n) rounds after
// saturation.

// mcState is a median-counter player state.
type mcState uint8

const (
	mcA mcState = iota
	mcB
	mcC
	mcD
)

// MedianCounterParams configures the broadcast.
type MedianCounterParams struct {
	// CtrMax is the counter ceiling (O(loglog n); Karp et al. use
	// c·loglog n for a constant c).
	CtrMax int32
	// MaxSteps caps the run as a disconnection guard.
	MaxSteps int
}

// DefaultMedianCounterParams returns CtrMax = ⌈loglog n⌉ + 2 and a
// generous step cap.
func DefaultMedianCounterParams(n int) MedianCounterParams {
	return MedianCounterParams{
		CtrMax:   int32(ceil(LogLogn(n)) + 2),
		MaxSteps: 64 * ceil(Logn(n)),
	}
}

// MedianCounterResult reports a run.
type MedianCounterResult struct {
	N     int
	Steps int
	// Informed is the number of players that ever learned the rumor.
	Informed int
	// Completed reports whether all players were informed.
	Completed bool
	// Quiesced reports whether every informed player reached state D (the
	// protocol terminated by itself before the step cap).
	Quiesced bool
	// Transmissions counts rumor copies sent (the Karp et al. metric);
	// Opened counts channel openings (every player opens every round).
	Transmissions int64
	Opened        int64
}

// mcShared is the state all median-counter machines share: atomic
// counters for the two global observations the driver needs (informed
// players; players still transmitting, for the self-termination test).
type mcShared struct {
	nt           *phone.Net
	p            MedianCounterParams
	informed     atomic.Int64
	transmitting atomic.Int64
}

// mcPayload is the rumor as transmitted: the sender's round-start state
// and counter, which is all the median rule reads.
type mcPayload struct {
	state mcState
	ctr   int32
}

// mcMachine is one median-counter player. State transitions run in
// OnStepEnd, so the answer and OnReceive observe round-start state without
// explicit snapshots; the per-round vote tallies live on the machine and
// reset at the end of its own transition.
type mcMachine struct {
	sh      *mcShared
	id      int32
	state   mcState
	ctr     int32 // B counter / C age
	inState int32 // rounds spent in current state
	// Per-round tallies of rumor receipts.
	hiVotes int32 // from C players or B players with larger counter
	loVotes int32 // from B players with counter <= own
	fromC   int32 // receipts from C players only
	anyRecv bool
	// informedAt is the step the player learned the rumor (-1 never;
	// 0 for the source).
	informedAt int32
	// pl is the outgoing payload buffer, refreshed each OnStep so
	// push and pull share one allocation-free round-start snapshot.
	pl mcPayload
}

func (m *mcMachine) transmitting() bool { return m.state == mcB || m.state == mcC }

func (m *mcMachine) OnStep(step int32) (int32, any, any) {
	m.pl = mcPayload{state: m.state, ctr: m.ctr}
	if m.sh.nt.Failed[m.id] {
		return phone.NoDial, nil, nil
	}
	var pl any
	if m.transmitting() {
		pl = &m.pl
	}
	return phone.DialUniform, pl, pl
}

func (m *mcMachine) Net() *phone.Net { return m.sh.nt }

func (m *mcMachine) OnReceive(from int32, payload any) {
	if m.sh.nt.Failed[m.id] {
		return
	}
	pl := payload.(*mcPayload)
	m.anyRecv = true
	switch {
	case pl.state == mcC:
		m.hiVotes++
		m.fromC++
	case pl.state == mcB && (m.state != mcB || pl.ctr >= m.ctr):
		// Equal counters vote "hi" (Karp et al. use m' >= m): this is
		// what lets a saturated population climb in lockstep instead of
		// deadlocking at B_1.
		m.hiVotes++
	default:
		m.loVotes++
	}
}

func (m *mcMachine) OnStepEnd(step int32) {
	switch m.state {
	case mcA:
		if m.anyRecv {
			m.informedAt = step
			m.sh.informed.Add(1)
			if m.fromC > 0 && m.fromC == m.hiVotes+m.loVotes {
				// Heard the rumor only from C players: join C.
				m.state = mcC
				m.ctr = 0
			} else {
				m.state = mcB
				m.ctr = 1
			}
			m.inState = 0
			m.sh.transmitting.Add(1)
		}
	case mcB:
		m.inState++
		if m.hiVotes > m.loVotes {
			m.ctr++
			m.inState = 0
		}
		if m.ctr > m.sh.p.CtrMax || m.inState > m.sh.p.CtrMax {
			m.state = mcC
			m.ctr = 0
			m.inState = 0
		}
	case mcC:
		m.ctr++
		if m.ctr > m.sh.p.CtrMax {
			m.state = mcD
			m.sh.transmitting.Add(-1)
		}
	}
	m.hiVotes, m.loVotes, m.fromC = 0, 0, 0
	m.anyRecv = false
}

// MedianCounterBroadcast runs the median-counter push&pull protocol from
// src on g. It returns when every informed player is in state D (self-
// termination — the protocol's whole point) or when MaxSteps elapses.
func MedianCounterBroadcast(g *graph.Graph, src int32, p MedianCounterParams, seed uint64) *MedianCounterResult {
	return MedianCounterOver(g, src, p, seed, SyncTransport)
}

// MedianCounterOver runs the protocol's node machines on the given
// transport; under SyncTransport results are bit-identical to the
// historic substrate loop.
func MedianCounterOver(g *graph.Graph, src int32, p MedianCounterParams, seed uint64, tf TransportFactory) *MedianCounterResult {
	n := g.N()
	if p.MaxSteps <= 0 {
		p.MaxSteps = 64 * ceil(Logn(n))
	}
	if p.CtrMax <= 0 {
		p.CtrMax = DefaultMedianCounterParams(n).CtrMax
	}
	sh := &mcShared{nt: phone.NewNet(g, seed), p: p}
	ms := make([]phone.Machine, n)
	for v := 0; v < n; v++ {
		ms[v] = &mcMachine{sh: sh, id: int32(v), informedAt: -1}
	}
	m := ms[src].(*mcMachine)
	m.state = mcB
	m.ctr = 1
	m.informedAt = 0
	sh.informed.Store(1)
	sh.transmitting.Store(1)

	t := tf(ms)
	res := &MedianCounterResult{N: n}

	d := &Driver{
		T:        t,
		MaxSteps: p.MaxSteps,
		Done:     func() bool { return sh.transmitting.Load() == 0 },
		AfterStep: func(_ int32, tl phone.StepTally) {
			res.Opened += tl.Opened
			res.Transmissions += tl.Pushes + tl.Responses
			res.Steps++
		},
	}
	d.Run()

	res.Quiesced = sh.transmitting.Load() == 0
	res.Informed = int(sh.informed.Load())
	res.Completed = res.Informed == n
	return res
}
