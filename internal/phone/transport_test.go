package phone

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gossip/internal/graph"
)

// TestBuildIncomingZeroAlloc pins the Round doc promise: a reused Round
// allocates nothing per step (the counting-sort cursor lives on the
// Round).
func TestBuildIncomingZeroAlloc(t *testing.T) {
	const n = 1024
	r := NewRound(n)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset()
		for v := 0; v < n; v++ {
			r.Out[v] = int32((v*7 + 3) % n)
		}
		r.BuildIncoming()
	})
	if allocs != 0 {
		t.Fatalf("Round step allocated %v times per run, want 0", allocs)
	}
}

// scriptMachine is a fully deterministic machine for transport tests:
// fixed dial targets, integer payloads, and a log of every receipt.
type scriptMachine struct {
	id   int32
	n    int32
	dial func(id, step int32) int32
	// push and open payloads; nil funcs send nothing.
	push func(id, step int32) any
	open func(id, from int32) any

	recvFrom []int32
	recvSum  int64
	steps    []int32
	ends     []int32
}

func (m *scriptMachine) OnStep(step int32) (int32, any) {
	m.steps = append(m.steps, step)
	d := m.dial(m.id, step)
	var p any
	if m.push != nil {
		p = m.push(m.id, step)
	}
	return d, p
}

func (m *scriptMachine) OnOpen(from int32) any {
	if m.open == nil {
		return nil
	}
	return m.open(m.id, from)
}

func (m *scriptMachine) OnReceive(from int32, payload any) {
	m.recvFrom = append(m.recvFrom, from)
	m.recvSum += int64(payload.(int))
}

func (m *scriptMachine) OnStepEnd(step int32) { m.ends = append(m.ends, step) }

func scriptMachines(n int, dial func(id, step int32) int32, push func(id, step int32) any, open func(id, from int32) any) ([]Machine, []*scriptMachine) {
	ms := make([]Machine, n)
	sms := make([]*scriptMachine, n)
	for v := 0; v < n; v++ {
		sms[v] = &scriptMachine{id: int32(v), n: int32(n), dial: dial, push: push, open: open}
		ms[v] = sms[v]
	}
	return ms, sms
}

// TestSyncStepPhases checks the synchronous transport against a scripted
// all-dial ring: tally fields, caller-order push delivery, and response
// delivery back to every caller.
func TestSyncStepPhases(t *testing.T) {
	const n = 8
	dial := func(id, step int32) int32 { return (id + 1) % n }
	push := func(id, step int32) any { return int(1) }
	open := func(id, from int32) any { return int(100) }
	ms, sms := scriptMachines(n, dial, push, open)
	tr := NewSync(ms)
	defer tr.Close()

	tl := tr.Step(1)
	if tl.Opened != n || tl.Pushes != n || tl.Responses != n {
		t.Fatalf("tally = %+v, want Opened=Pushes=Responses=%d", tl, n)
	}
	for v, m := range sms {
		// Each node receives one push from its predecessor and one
		// response from its callee.
		wantPush := (int32(v) - 1 + n) % n
		wantResp := (int32(v) + 1) % n
		if len(m.recvFrom) != 2 || m.recvFrom[0] != wantPush || m.recvFrom[1] != wantResp {
			t.Fatalf("node %d receipts = %v, want [%d %d]", v, m.recvFrom, wantPush, wantResp)
		}
		if m.recvSum != 101 {
			t.Fatalf("node %d sum = %d, want 101", v, m.recvSum)
		}
		if len(m.ends) != 1 || m.ends[0] != 1 {
			t.Fatalf("node %d OnStepEnd calls = %v", v, m.ends)
		}
	}
}

// TestSyncIncomingCallerOrder pins the push delivery order the bit-
// identity argument rests on: callers of one receiver arrive in
// increasing caller id.
func TestSyncIncomingCallerOrder(t *testing.T) {
	const n = 16
	// Everyone dials node 0.
	dial := func(id, step int32) int32 { return 0 }
	push := func(id, step int32) any { return int(id) }
	ms, sms := scriptMachines(n, dial, push, nil)
	tr := NewSync(ms)
	defer tr.Close()
	tr.Step(1)

	got := sms[0].recvFrom
	if len(got) != n {
		t.Fatalf("node 0 received %d pushes, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("callers out of order at %d: %v", i, got)
		}
	}
}

// TestSyncNoDialNoPayload checks closed channels carry nothing and nil
// pushes still pull responses.
func TestSyncNoDialNoPayload(t *testing.T) {
	const n = 4
	// Only node 1 dials (to node 2), with no push payload.
	dial := func(id, step int32) int32 {
		if id == 1 {
			return 2
		}
		return NoDial
	}
	open := func(id, from int32) any { return int(7) }
	ms, sms := scriptMachines(n, dial, nil, open)
	tr := NewSync(ms)
	defer tr.Close()

	tl := tr.Step(1)
	if tl.Opened != 1 || tl.Pushes != 0 || tl.Responses != 1 {
		t.Fatalf("tally = %+v, want {1 0 1}", tl)
	}
	if len(sms[2].recvFrom) != 0 {
		t.Fatalf("callee received a payload from a nil push: %v", sms[2].recvFrom)
	}
	if len(sms[1].recvFrom) != 1 || sms[1].recvFrom[0] != 2 || sms[1].recvSum != 7 {
		t.Fatalf("caller pull = from %v sum %d, want from [2] sum 7", sms[1].recvFrom, sms[1].recvSum)
	}
}

// TestAsyncMatchesSyncScripted runs the same scripted machines under both
// transports and requires identical tallies and identical per-node
// receipt multisets (async delivery order within a node may differ).
func TestAsyncMatchesSyncScripted(t *testing.T) {
	const n = 32
	const steps = 5
	dial := func(id, step int32) int32 { return (id*7 + step*3) % n }
	push := func(id, step int32) any { return int(id + 1000*step) }
	open := func(id, from int32) any { return int(-(id + 1)) }

	run := func(mk func([]Machine) Transport) ([]StepTally, []*scriptMachine) {
		ms, sms := scriptMachines(n, dial, push, open)
		tr := mk(ms)
		defer tr.Close()
		var tallies []StepTally
		for s := int32(1); s <= steps; s++ {
			tallies = append(tallies, tr.Step(s))
		}
		return tallies, sms
	}

	syncT, syncM := run(func(ms []Machine) Transport { return NewSync(ms) })
	asyncT, asyncM := run(func(ms []Machine) Transport { return NewAsync(ms) })

	for i := range syncT {
		if syncT[i] != asyncT[i] {
			t.Fatalf("step %d tally: sync %+v async %+v", i+1, syncT[i], asyncT[i])
		}
	}
	for v := range syncM {
		if syncM[v].recvSum != asyncM[v].recvSum {
			t.Fatalf("node %d receipt sum: sync %d async %d", v, syncM[v].recvSum, asyncM[v].recvSum)
		}
		if len(syncM[v].recvFrom) != len(asyncM[v].recvFrom) {
			t.Fatalf("node %d receipt count: sync %d async %d",
				v, len(syncM[v].recvFrom), len(asyncM[v].recvFrom))
		}
	}
}

// TestAsyncCloseIdempotent checks Close can be called repeatedly
// (TestAsyncNoGoroutineLeak checks that it stops the goroutines).
func TestAsyncCloseIdempotent(t *testing.T) {
	ms, _ := scriptMachines(4, func(id, step int32) int32 { return NoDial }, nil, nil)
	tr := NewAsync(ms)
	tr.Step(1)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestTransportsOverNet smoke-checks that machines drawing from a Net's
// per-node streams dial identically under both transports (the dial phase
// is the only randomized phase).
func TestTransportsOverNet(t *testing.T) {
	const n = 64
	g := graph.Complete(n)

	type dialRec struct{ dials [][]int32 }
	mkMachines := func(nt *Net, rec *dialRec) []Machine {
		ms := make([]Machine, n)
		for v := 0; v < n; v++ {
			v := int32(v)
			ms[v] = &funcMachine{onStep: func(step int32) (int32, any) {
				d := nt.G.RandomNeighbor(v, nt.RNG(v))
				rec.dials[v] = append(rec.dials[v], d)
				return d, nil
			}}
		}
		return ms
	}

	var recS, recA dialRec
	recS.dials = make([][]int32, n)
	recA.dials = make([][]int32, n)

	ts := NewSync(mkMachines(NewNet(g, 42), &recS))
	ta := NewAsync(mkMachines(NewNet(g, 42), &recA))
	defer ts.Close()
	defer ta.Close()
	for s := int32(1); s <= 4; s++ {
		ts.Step(s)
		ta.Step(s)
	}
	for v := 0; v < n; v++ {
		if len(recS.dials[v]) != len(recA.dials[v]) {
			t.Fatalf("node %d dial counts differ", v)
		}
		for i := range recS.dials[v] {
			if recS.dials[v][i] != recA.dials[v][i] {
				t.Fatalf("node %d dial %d: sync %d async %d", v, i, recS.dials[v][i], recA.dials[v][i])
			}
		}
	}
}

// funcMachine adapts a bare OnStep closure to the Machine interface.
type funcMachine struct {
	onStep func(step int32) (int32, any)
}

func (m *funcMachine) OnStep(step int32) (int32, any) { return m.onStep(step) }
func (m *funcMachine) OnOpen(from int32) any          { return nil }
func (m *funcMachine) OnReceive(from int32, p any)    {}
func (m *funcMachine) OnStepEnd(step int32)           {}

// TestAsyncZeroMachines checks a transport over no nodes steps without
// waiting for workers that do not exist.
func TestAsyncZeroMachines(t *testing.T) {
	tr := NewAsync(nil)
	got := make(chan StepTally)
	go func() {
		tl := tr.Step(1)
		tr.Close()
		got <- tl
	}()
	select {
	case tl := <-got:
		if tl != (StepTally{}) {
			t.Fatalf("tally = %+v, want zero", tl)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Step over zero machines did not return")
	}
}

// TestAsyncStepAfterClosePanics checks a closed transport refuses to step
// with its own message instead of hanging or failing inside the runtime.
func TestAsyncStepAfterClosePanics(t *testing.T) {
	ms, _ := scriptMachines(4, func(id, step int32) int32 { return (id + 1) % 4 }, nil, nil)
	tr := NewAsync(ms)
	tr.Step(1)
	tr.Close()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.HasPrefix(msg, "phone: ") {
			t.Fatalf("Step after Close: recovered %v, want a phone: panic", r)
		}
	}()
	tr.Step(2)
}

// TestAsyncNoGoroutineLeak checks Close stops every node goroutine.
func TestAsyncNoGoroutineLeak(t *testing.T) {
	const n = 256
	base := runtime.NumGoroutine()
	ms, _ := scriptMachines(n, func(id, step int32) int32 { return (id*7 + step) % n }, nil, nil)
	tr := NewAsync(ms)
	for s := int32(1); s <= 3; s++ {
		tr.Step(s)
	}
	tr.Close()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still running, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// orderMachine logs its node's callbacks in the order they ran. Its
// payloads carry their step, and every receipt checks that all n nodes
// had finished dialing that step.
type orderMachine struct {
	id, n  int32
	dial   func(id, step int32) int32
	dialed []atomic.Int32 // shared: dialed[s] counts returned OnStep(s) calls
	cur    int32
	log    []orderEvent
	early  int // receipts seen before every node had dialed their step
}

type orderEvent struct {
	kind byte // 's' OnStep, 'r' OnReceive, 'o' OnOpen, 'e' OnStepEnd
	step int32
}

func (m *orderMachine) OnStep(step int32) (int32, any) {
	m.cur = step
	m.log = append(m.log, orderEvent{'s', step})
	var push any
	if (m.id+step)%3 != 0 {
		push = int(step)
	}
	d := m.dial(m.id, step)
	m.dialed[step].Add(1)
	return d, push
}

func (m *orderMachine) OnOpen(from int32) any {
	m.log = append(m.log, orderEvent{'o', m.cur})
	if m.dialed[m.cur].Load() != m.n {
		m.early++
	}
	if (m.id+from)%4 == 0 {
		return nil
	}
	return int(m.cur)
}

func (m *orderMachine) OnReceive(from int32, payload any) {
	s := int32(payload.(int))
	m.log = append(m.log, orderEvent{'r', s})
	if m.dialed[s].Load() != m.n {
		m.early++
	}
}

func (m *orderMachine) OnStepEnd(step int32) { m.log = append(m.log, orderEvent{'e', step}) }

// TestAsyncOrderingContract pins the per-node order Async keeps while a
// node's OnStepEnd runs as soon as its own exchange is done: every
// OnReceive and OnOpen of step s precedes the node's OnStepEnd(s), which
// precedes its OnStep(s+1), and no payload of step s is received before
// every node's OnStep(s) has returned.
func TestAsyncOrderingContract(t *testing.T) {
	const n, steps = 64, 6
	// Nodes 16… crowd onto few of the nodes below 16 (squares mod 16), and
	// nodes below 16 each call one of the rest, so in-degrees span 0 to 12.
	dial := func(id, step int32) int32 {
		switch {
		case (id+step)%9 == 0:
			return NoDial
		case id < 16:
			return 16 + (id*3+step)%(n-16)
		default:
			return (id*id + step) % 16
		}
	}
	// The counts the script implies, per step and node.
	var opens, recvs [steps + 1][n]int
	minIn, maxIn := n, 0
	for s := int32(1); s <= steps; s++ {
		for v := int32(0); v < n; v++ {
			u := dial(v, s)
			if u < 0 {
				continue
			}
			opens[s][u]++
			if (v+s)%3 != 0 {
				recvs[s][u]++
			}
			if (u+v)%4 != 0 {
				recvs[s][v]++
			}
		}
		for v := 0; v < n; v++ {
			minIn, maxIn = min(minIn, opens[s][v]), max(maxIn, opens[s][v])
		}
	}
	if minIn != 0 || maxIn < 4 {
		t.Fatalf("script in-degrees span %d…%d, want 0 to at least 4", minIn, maxIn)
	}

	for rep := 0; rep < 10; rep++ {
		dialed := make([]atomic.Int32, steps+1)
		ms := make([]Machine, n)
		oms := make([]*orderMachine, n)
		for v := range ms {
			oms[v] = &orderMachine{id: int32(v), n: n, dial: dial, dialed: dialed}
			ms[v] = oms[v]
		}
		tr := NewAsync(ms)
		for s := int32(1); s <= steps; s++ {
			tr.Step(s)
		}
		tr.Close()

		for v, m := range oms {
			if m.early != 0 {
				t.Fatalf("node %d: %d receipts before every node had dialed", v, m.early)
			}
			i := 0
			for s := int32(1); s <= steps; s++ {
				if i >= len(m.log) || m.log[i] != (orderEvent{'s', s}) {
					t.Fatalf("node %d: want OnStep(%d) at event %d, log %v", v, s, i, m.log)
				}
				i++
				o, r := 0, 0
				for ; i < len(m.log) && m.log[i].kind != 'e'; i++ {
					switch e := m.log[i]; {
					case e.step != s:
						t.Fatalf("node %d: step-%d event %c inside step %d, log %v", v, e.step, e.kind, s, m.log)
					case e.kind == 'o':
						o++
					case e.kind == 'r':
						r++
					default:
						t.Fatalf("node %d: %c before OnStepEnd(%d), log %v", v, e.kind, s, m.log)
					}
				}
				if i >= len(m.log) || m.log[i].step != s {
					t.Fatalf("node %d: want OnStepEnd(%d) at event %d, log %v", v, s, i, m.log)
				}
				i++
				if o != opens[s][v] || r != recvs[s][v] {
					t.Fatalf("node %d step %d: %d opens and %d receipts before OnStepEnd, want %d and %d",
						v, s, o, r, opens[s][v], recvs[s][v])
				}
			}
			if i != len(m.log) {
				t.Fatalf("node %d: events after the last OnStepEnd: %v", v, m.log[i:])
			}
		}
	}
}

// quietMachine dials on a fixed script and sends only nil or zero-size
// payloads, so a step through it allocates only what the transport does.
type quietMachine struct{ id, n int32 }

func (m quietMachine) OnStep(step int32) (int32, any) {
	switch (m.id + step) % 4 {
	case 0:
		return NoDial, nil
	case 1:
		return (m.id + 1) % m.n, nil
	default:
		return (m.id*3 + step) % m.n, struct{}{}
	}
}

func (m quietMachine) OnOpen(from int32) any {
	if from%2 == 0 {
		return struct{}{}
	}
	return nil
}

func (quietMachine) OnReceive(int32, any) {}
func (quietMachine) OnStepEnd(int32)      {}

// TestAsyncStepAllocs pins the inbox reuse and the allocation-free
// barrier: a steady-state step allocates a small constant, the same at
// every n.
func TestAsyncStepAllocs(t *testing.T) {
	const maxAllocs = 4
	for _, n := range []int{64, 1024} {
		ms := make([]Machine, n)
		for v := range ms {
			ms[v] = quietMachine{id: int32(v), n: int32(n)}
		}
		tr := NewAsync(ms)
		step := int32(0)
		for ; step < 8; step++ { // every inbox reaches its largest in-degree
			tr.Step(step)
		}
		allocs := testing.AllocsPerRun(60, func() {
			tr.Step(step)
			step++
		})
		tr.Close()
		if allocs > maxAllocs {
			t.Errorf("n = %d: Async.Step allocated %v times per step, want at most %d", n, allocs, maxAllocs)
		}
	}
}
