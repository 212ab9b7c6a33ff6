package core

import (
	"encoding/binary"
	"math"
	"sync/atomic"

	"gossip/internal/graph"
	"gossip/internal/phone"
)

// noID marks a node that has not yet received any candidate identifier.
const noID = int32(math.MaxInt32)

// LeaderResult reports a run of Algorithm 3.
type LeaderResult struct {
	// Leader is the elected node, -1 if the election failed to produce one.
	Leader int32
	// Candidates is the number of self-declared possible leaders.
	Candidates int
	// Unique reports that exactly one node believes it is the leader.
	Unique bool
	// AwareCount is the number of non-failed nodes whose final minimum
	// equals the winner's ID ("all nodes are aware of the leader").
	AwareCount int
	// N is the number of nodes; Steps and Meter account the run.
	N     int
	Steps int
	Meter phone.Meter
}

// ElectLeaderOver runs Algorithm 3 on g as node state machines over the
// given transport: each node becomes a possible leader with probability
// log²n/n, candidate IDs spread by open-avoid pushes for PushSteps steps
// (receivers activate and forward the smallest ID seen), then every node
// performs PullSteps open-avoid pulls; the candidate whose ID equals its
// own final minimum becomes the leader.
func ElectLeaderOver(g *graph.Graph, p LeaderParams, seed uint64, tf TransportFactory) *LeaderResult {
	return electLeaderOver(phone.NewNet(g, seed), p, tf)
}

// LeaderSet is Algorithm 3 as a set of per-node phone.Machine state
// machines over a shared substrate. Most callers want ElectLeaderOver,
// which builds the set and drives it to its fixed schedule;
// the set is exported for drivers with their own step loops — internal/
// gossipd runs the same machines over loopback TCP and polls Complete to
// keep pulling past the schedule until every healthy node knows the leader.
//
// Node identifiers are the node indices; IDs fold by minimum, so the
// elected leader is the minimum-index candidate whenever the spread
// completes, which tests verify directly.
type LeaderSet struct {
	nt        *phone.Net
	nodes     []*leaderMachine
	ms        []phone.Machine
	pushSteps int32
	minCand   int32
	healthy   int64
	aware     atomic.Int64 // healthy nodes whose current minimum is minCand
	nCand     int
}

// leaderMachine holds one node's election state. cur is the smallest ID
// known at step start (what the pull stage answers and the push stage
// forwards); next is the running minimum over everything received; the
// two meet in OnStepEnd. curWire is cur pre-encoded as a 4-byte
// big-endian payload, boxed once per change so that no push or answer
// boxes it again — a fresh slice on every change, so a networked
// transport can hold a reference across steps safely.
type leaderMachine struct {
	set       *LeaderSet
	id        int32
	candidate bool
	active    bool
	cur, next int32
	curWire   any // a []byte
}

func encodeID(v int32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, uint32(v))
	return b
}

// DecodeLeaderID parses the 4-byte candidate-ID payload of the election
// machines (exported for transports that inspect frames in tests).
func DecodeLeaderID(b []byte) (int32, bool) {
	if len(b) != 4 {
		return 0, false
	}
	return int32(binary.BigEndian.Uint32(b)), true
}

// NewLeaderSet flips the candidate coins (the first draw on every node's
// stream, ascending node id) and returns the machine set, ready to step.
func NewLeaderSet(nt *phone.Net, p LeaderParams) *LeaderSet {
	n := nt.G.N()
	avoid := p.AvoidLast
	if avoid <= 0 || avoid > phone.MemorySlots {
		avoid = 3
	}
	nt.InitMemory(avoid)

	s := &LeaderSet{
		nt:        nt,
		nodes:     make([]*leaderMachine, n),
		ms:        make([]phone.Machine, n),
		pushSteps: int32(p.PushSteps),
		minCand:   noID,
		healthy:   int64(n - nt.FailCount()),
	}
	if s.pushSteps < 1 {
		s.pushSteps = 1 // the candidates' initial pushes always form a step
	}
	for v := 0; v < n; v++ {
		s.nodes[v] = &leaderMachine{set: s, id: int32(v), cur: noID, next: noID}
		s.ms[v] = s.nodes[v]
	}
	for v := int32(0); int(v) < n; v++ {
		if nt.Failed[v] {
			continue
		}
		if nt.RNG(v).Bernoulli(p.CandidateProb) {
			s.nodes[v].candidate = true
			s.nCand++
		}
	}
	if s.nCand == 0 {
		// The paper's regime has Θ(log²n) candidates w.h.p.; on tiny inputs
		// the coin can miss, in which case the minimum-index node steps up
		// so the protocol still terminates (documented deviation).
		for v := int32(0); int(v) < n; v++ {
			if !nt.Failed[v] {
				s.nodes[v].candidate = true
				s.nCand = 1
				break
			}
		}
	}
	for v := int32(0); int(v) < n; v++ {
		nd := s.nodes[v]
		if nd.candidate {
			nd.cur, nd.next = v, v
			nd.active = true
			nd.curWire = encodeID(v)
			if v < s.minCand {
				s.minCand = v
			}
		}
	}
	if s.minCand != noID && !nt.Failed[s.minCand] {
		s.aware.Store(1) // the eventual winner already knows itself
	}
	return s
}

// Machine returns node v's machine.
func (s *LeaderSet) Machine(v int32) phone.Machine { return s.nodes[v] }

// PushSteps returns the length of the ID push stage in steps.
func (s *LeaderSet) PushSteps() int { return int(s.pushSteps) }

// Complete reports whether every healthy node's current minimum is the
// minimum candidate ID — the eventual leader when the spread completes.
// Safe to poll between steps from any goroutine.
func (s *LeaderSet) Complete() bool { return s.aware.Load() >= s.healthy }

func (m *leaderMachine) OnStep(step int32) (int32, any, any) {
	s := m.set
	if s.nt.Failed[m.id] {
		return phone.NoDial, nil, nil
	}
	if step <= s.pushSteps {
		// Push stage: active nodes that already knew an ID at step start
		// forward their minimum (nodes activated mid-step have cur == noID
		// until OnStepEnd, so they start pushing next step); push-stage
		// channels only carry the caller's push.
		if !m.active || m.cur == noID {
			return phone.NoDial, nil, nil
		}
		return s.nt.OpenAvoid(m.id), m.curWire, nil // NoDial drops the push
	}
	// Pull stage: every node opens a channel; the channel itself pulls,
	// and a node that knows an ID answers with it.
	var answer any
	if m.cur != noID {
		answer = m.curWire
	}
	return s.nt.OpenAvoid(m.id), nil, answer
}

func (m *leaderMachine) OnReceive(from int32, payload any) {
	if m.set.nt.Failed[m.id] {
		return
	}
	b, _ := payload.([]byte)
	id, ok := DecodeLeaderID(b)
	if !ok {
		return // not a candidate ID: dropped
	}
	if id < m.next {
		m.next = id
	}
	m.active = true // receivers join the spread from the next step on
}

func (m *leaderMachine) OnStepEnd(step int32) {
	if m.cur == m.next {
		return
	}
	s := m.set
	// cur only decreases, so the transition to the minimum candidate
	// happens at most once per node — count it for Complete.
	if m.next == s.minCand && !s.nt.Failed[m.id] {
		s.aware.Add(1)
	}
	m.cur = m.next
	m.curWire = encodeID(m.cur)
}

// Resolve computes the election outcome from the machines' final state:
// the candidate that still believes in its own ID wins.
func (s *LeaderSet) Resolve() *LeaderResult {
	res := &LeaderResult{Leader: -1, N: len(s.nodes), Candidates: s.nCand}
	winners := 0
	for _, nd := range s.nodes {
		if nd.candidate && !s.nt.Failed[nd.id] && nd.cur == nd.id {
			winners++
			res.Leader = nd.id
		}
	}
	res.Unique = winners == 1
	if res.Leader >= 0 {
		for _, nd := range s.nodes {
			if !s.nt.Failed[nd.id] && nd.cur == res.Leader {
				res.AwareCount++
			}
		}
	}
	return res
}

// electLeaderOver runs Algorithm 3 on an existing substrate (so the
// memory-model pipeline can share one Net and keep a single seed for the
// whole run).
func electLeaderOver(nt *phone.Net, p LeaderParams, tf TransportFactory) *LeaderResult {
	set := NewLeaderSet(nt, p)
	t := tf(set.ms)

	var m phone.Meter
	d := &Driver{
		T:        t,
		MaxSteps: set.PushSteps() + p.PullSteps,
		AfterStep: func(_ int32, tl phone.StepTally) {
			m.Open(tl.Opened)
			m.Push(tl.Pushes + tl.Responses)
			m.Step()
		},
	}
	d.Run()

	res := set.Resolve()
	res.Steps = m.Steps
	res.Meter = m
	return res
}
