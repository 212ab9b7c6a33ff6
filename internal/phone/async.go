package phone

import "sync/atomic"

// Async is an asynchronous in-process transport: one persistent goroutine
// per node, so delivery order within a receiver is scheduling-dependent.
// A step has two phases. In the dial phase every node steps (drawing a
// DialUniform itself) and pushes itself onto its callee's caller list, a
// lock-free stack in CAS order. In the exchange phase each node walks its
// own list, receiving every caller's push, reads its callee's answer and
// runs its OnStepEnd without waiting for the others. The coordinator
// releases a phase by closing one gate; the last worker done counts an
// atomic down to zero and wakes it. With commutative receipt handling
// (all of internal/core's machines) delivered state equals Sync's;
// walk-forwarding machines may route walks otherwise with the same
// completion semantics. A machine runs on its own goroutine.
type Async struct {
	ms      []Machine
	nt      *Net           // the machines' Net, which DialUniform draws on
	out     []int32        // by caller: its callee or NoDial
	push    []any          // by caller
	answer  []any          // by callee
	head    []atomic.Int32 // by callee: its last caller to arrive, or -1
	next    []int32        // by caller: the caller that arrived before it, or -1
	step    int32
	phase   asyncPhase    // with gate, written only while no worker reads them
	gate    chan struct{} // closed to release the workers into phase
	pending atomic.Int32  // workers still in the released phase
	done    chan struct{} // capacity 1: sent by the last of them
	closed  bool
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
		ms:     ms,
		nt:     netOf(ms),
		out:    make([]int32, n),
		push:   make([]any, n),
		answer: make([]any, n),
		head:   make([]atomic.Int32, n),
		next:   make([]int32, n),
		gate:   make(chan struct{}),
		done:   make(chan struct{}, 1),
	}
	for v := 0; v < n; v++ {
		a.head[v].Store(-1)
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
			dial, push, answer := m.OnStep(a.step)
			u := a.nt.Resolve(v, dial)
			a.out[v], a.push[v], a.answer[v] = u, push, answer
			if u >= 0 {
				for h := a.head[u].Load(); ; h = a.head[u].Load() {
					a.next[v] = h
					if a.head[u].CompareAndSwap(h, v) {
						break
					}
				}
			}
		case phaseExchange:
			// Only v reads its list in this phase; the next dial phase,
			// which pushes onto it again, starts after every worker is done.
			for c := a.head[v].Swap(-1); c >= 0; c = a.next[c] {
				if p := a.push[c]; p != nil {
					m.OnReceive(c, p)
				}
			}
			// After the callee's answer no callback of v runs this step,
			// so v's transition is due.
			if u := a.out[v]; u >= 0 {
				if r := a.answer[u]; r != nil {
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
	a.release(phaseDial)
	a.release(phaseExchange)

	var t StepTally
	for v, u := range a.out {
		if u >= 0 {
			t.Opened++
			if a.push[v] != nil {
				t.Pushes++
			}
			if a.answer[u] != nil {
				t.Responses++
			}
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
