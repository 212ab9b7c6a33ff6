package core

import "gossip/internal/phone"

// TransportFactory builds the Transport a machine-driven run executes on.
// The *Over variants of the algorithms take one, so the same protocol
// code runs on the synchronous in-memory transport (bit-identical to the
// pre-seam loops), a seeded schedule of it (phone.NewSeeded), or any
// future networked transport.
type TransportFactory func(ms []phone.Machine) phone.Transport

// SyncTransport is the canonical in-memory transport (phone.Sync).
func SyncTransport(ms []phone.Machine) phone.Transport { return phone.NewSync(ms) }

// AsyncTransport is phone.Sync's seeded schedule at a fixed seed. It kept
// the name of the goroutine-per-node transport it replaced only because
// the benchmark's transports workload calls it.
func AsyncTransport(ms []phone.Machine) phone.Transport { return phone.NewSeeded(ms, 1) }

// Driver runs machine steps over a Transport until a protocol-level stop
// condition or a step cap. Steps are numbered from 1; Done is evaluated
// between steps (and before the first), so a run stops as soon as the
// terminal predicate holds at a step boundary.
type Driver struct {
	T phone.Transport
	// MaxSteps caps the run; <= 0 means no cap (Done alone stops it).
	MaxSteps int
	// Done, if non-nil, is the global terminal predicate.
	Done func() bool
	// BeforeStep/AfterStep, if non-nil, bracket every step — the hook
	// point for shared-state snapshots (msg tracker BeginRound/EndRound)
	// and for mapping the transport tally onto Meter conventions.
	BeforeStep func(step int32)
	AfterStep  func(step int32, t phone.StepTally)
}

// Run executes steps until Done or MaxSteps and returns the number of
// steps executed.
func (d *Driver) Run() int {
	steps := 0
	for d.MaxSteps <= 0 || steps < d.MaxSteps {
		if d.Done != nil && d.Done() {
			break
		}
		steps++
		step := int32(steps)
		if d.BeforeStep != nil {
			d.BeforeStep(step)
		}
		t := d.T.Step(step)
		if d.AfterStep != nil {
			d.AfterStep(step, t)
		}
	}
	return steps
}

// roundTracker is the tracker surface the push–pull loop and its
// exchange machines need; both msg.Full and msg.Sampled implement it. A
// receiver's Transfer calls and its Settle, after the last of them in a
// step, come from the goroutine that delivers to it; EndRound settles
// any row left pending.
type roundTracker interface {
	BeginRound()
	EndRound()
	Transfer(src, dst int32) int
	Settle(v int32)
	Complete() bool
}

// marker is the push/response payload of tracker-backed machines: the
// message content lives in the shared tracker and is transferred on
// receipt, so the payload only marks that the channel carried a packet.
type marker struct{}

var markerPayload any = marker{}

// exchangeMachine is the push–pull baseline as a node state machine: every
// healthy node dials a uniformly random neighbor (phone.DialUniform) each
// step and every open channel carries a bidirectional exchange, recorded in
// a shared round tracker (partitioned by receiver, so any Transport phasing
// that delivers to one node from one goroutine at a time is race-free). A
// node settles its own row at step end: in Sync's OnStepEnd par.For, or,
// on a seeded schedule, once its own exchange is done.
type exchangeMachine struct {
	id int32
	nt *phone.Net
	tr roundTracker
}

func exchangeMachines(nt *phone.Net, tr roundTracker) []phone.Machine {
	n := nt.G.N()
	ms := make([]phone.Machine, n)
	for v := 0; v < n; v++ {
		ms[v] = &exchangeMachine{id: int32(v), nt: nt, tr: tr}
	}
	return ms
}

func (m *exchangeMachine) OnStep(step int32) (int32, any, any) {
	if m.nt.Failed[m.id] {
		return phone.NoDial, nil, nil
	}
	return phone.DialUniform, markerPayload, markerPayload
}

func (m *exchangeMachine) Net() *phone.Net { return m.nt }

func (m *exchangeMachine) OnReceive(from int32, payload any) {
	if m.nt.Failed[m.id] {
		return
	}
	m.tr.Transfer(from, m.id)
}

func (m *exchangeMachine) OnStepEnd(step int32) { m.tr.Settle(m.id) }
