package phone

import "sync/atomic"

// Async is an asynchronous in-process transport: one persistent goroutine
// per node, with payloads delivered through per-node channels, so delivery
// order within a receiver is scheduling-dependent. A step has two phases:
// every node dials (drawing a DialUniform itself); then each calls out,
// serves exactly its incoming channels, collects its own response and
// runs its OnStepEnd without waiting for the others. The coordinator
// releases a phase by closing one gate; the last worker done counts an
// atomic down to zero and wakes it. Inboxes are reused, growing only past
// their largest in-degree yet. With commutative receipt handling (all of
// internal/core's machines) delivered state equals Sync's; walk-forwarding
// machines may route walks otherwise with the same completion semantics.
// A machine runs on its own goroutine.
type Async struct {
	ms      []Machine
	nt      *Net // the machines' Net, which DialUniform draws on
	round   *Round
	push    []any
	inbox   []chan envelope // reused; capacity >= the step's in-degree
	reply   []chan any      // capacity 1: the pull response to node v's call
	respGot []bool          // set by worker v when its call pulled a response
	step    int32
	phase   asyncPhase    // with gate, written only while no worker reads them
	gate    chan struct{} // closed to release the workers into phase
	pending atomic.Int32  // workers still in the released phase
	done    chan struct{} // capacity 1: sent by the last of them
	closed  bool
}

type envelope struct {
	from    int32
	payload any
}

type asyncPhase uint8

const (
	phaseDial asyncPhase = iota
	phaseExchange
	phaseStop
)

// NewAsync returns an asynchronous transport over the machines, starting
// one goroutine per node. Callers must Close it to stop the goroutines.
func NewAsync(ms []Machine) *Async {
	n := len(ms)
	a := &Async{
		ms:      ms,
		nt:      netOf(ms),
		round:   NewRound(n),
		push:    make([]any, n),
		inbox:   make([]chan envelope, n),
		reply:   make([]chan any, n),
		respGot: make([]bool, n),
		gate:    make(chan struct{}),
		done:    make(chan struct{}, 1),
	}
	for v := 0; v < n; v++ {
		a.reply[v] = make(chan any, 1)
		go a.worker(int32(v), a.gate)
	}
	return a
}

// N returns the number of nodes.
func (a *Async) N() int { return len(a.ms) }

func (a *Async) worker(v int32, gate chan struct{}) {
	m := a.ms[v]
	for {
		<-gate
		ph := a.phase
		gate = a.gate
		switch ph {
		case phaseDial:
			dial, push := m.OnStep(a.step)
			a.round.Out[v] = a.nt.Resolve(v, dial)
			a.push[v] = push
		case phaseExchange:
			// Call out (a nil push still requests a response); inboxes
			// hold the step's in-degree, so sends never block.
			u := a.round.Out[v]
			if u >= 0 {
				a.inbox[u] <- envelope{from: v, payload: a.push[v]}
			}
			// Serve exactly the incoming channels of this step.
			for i := a.round.InDegree(v); i > 0; i-- {
				e := <-a.inbox[v]
				if e.payload != nil {
					m.OnReceive(e.from, e.payload)
				}
				a.reply[e.from] <- m.OnOpen(e.from)
			}
			// Collect the response to the node's own call; after it no
			// callback of v runs this step, so v's transition is due.
			a.respGot[v] = false
			if u >= 0 {
				if r := <-a.reply[v]; r != nil {
					a.respGot[v] = true
					m.OnReceive(u, r)
				}
			}
			m.OnStepEnd(a.step)
		}
		if a.pending.Add(-1) == 0 {
			a.done <- struct{}{}
		}
		if ph == phaseStop {
			return
		}
	}
}

// release runs one phase on every worker and returns once all are done.
func (a *Async) release(ph asyncPhase) {
	a.phase = ph
	a.pending.Store(int32(len(a.ms)))
	gate := a.gate
	a.gate = make(chan struct{})
	close(gate)
	if len(a.ms) > 0 {
		<-a.done
	}
}

// Step runs one logical step across all node goroutines.
func (a *Async) Step(step int32) StepTally {
	if a.closed {
		panic("phone: Step on a closed Async")
	}
	a.step = step
	a.round.Reset()
	a.release(phaseDial)
	a.round.BuildIncoming()
	for v, in := range a.inbox {
		if d := a.round.InDegree(int32(v)); d > cap(in) {
			a.inbox[v] = make(chan envelope, d)
		}
	}
	a.release(phaseExchange)

	var t StepTally
	for v, u := range a.round.Out {
		if u >= 0 {
			t.Opened++
			if a.push[v] != nil {
				t.Pushes++
			}
		}
		if a.respGot[v] {
			t.Responses++
		}
	}
	return t
}

// Close stops the node goroutines and waits for them; repeat calls no-op.
func (a *Async) Close() error {
	if !a.closed {
		a.closed = true
		a.release(phaseStop)
	}
	return nil
}
