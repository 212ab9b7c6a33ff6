package phone

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"gossip/internal/graph"
)

// TestBuildIncomingZeroAlloc pins the Round doc promise: a reused Round
// allocates nothing per step (the counting sort's scratch lives on the
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
	// push and answer payloads; nil funcs send nothing.
	push   func(id, step int32) any
	answer func(id, step int32) any

	recvFrom []int32
	recvSum  int64
	steps    []int32
	ends     []int32
}

func (m *scriptMachine) OnStep(step int32) (int32, any, any) {
	m.steps = append(m.steps, step)
	d := m.dial(m.id, step)
	var p, a any
	if m.push != nil {
		p = m.push(m.id, step)
	}
	if m.answer != nil {
		a = m.answer(m.id, step)
	}
	return d, p, a
}

func (m *scriptMachine) OnReceive(from int32, payload any) {
	m.recvFrom = append(m.recvFrom, from)
	m.recvSum += int64(payload.(int))
}

func (m *scriptMachine) OnStepEnd(step int32) { m.ends = append(m.ends, step) }

func scriptMachines(n int, dial func(id, step int32) int32, push, answer func(id, step int32) any) ([]Machine, []*scriptMachine) {
	ms := make([]Machine, n)
	sms := make([]*scriptMachine, n)
	for v := 0; v < n; v++ {
		sms[v] = &scriptMachine{id: int32(v), n: int32(n), dial: dial, push: push, answer: answer}
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
	answer := func(id, step int32) any { return int(100) }
	ms, sms := scriptMachines(n, dial, push, answer)
	tr := NewSync(ms)

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
	answer := func(id, step int32) any { return int(7) }
	ms, sms := scriptMachines(n, dial, nil, answer)
	tr := NewSync(ms)

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

// scheduleSeeds is the fixed seed set every seeded-schedule test walks; a
// failure names its seed, and NewSeeded(ms, seed) replays it.
const scheduleSeeds = 32

// TestSeededMatchesSyncScripted runs the same scripted machines on Sync
// and on every seeded schedule and requires identical tallies and
// identical per-node receipt multisets (the order within a node may
// differ).
func TestSeededMatchesSyncScripted(t *testing.T) {
	const n = 32
	const steps = 5
	dial := func(id, step int32) int32 { return (id*id + step*3) % n }
	push := func(id, step int32) any { return int(id + 1000*step) }
	answer := func(id, step int32) any { return int(-(id + 1)) }

	run := func(tr Transport, sms []*scriptMachine) ([]StepTally, []*scriptMachine) {
		var tallies []StepTally
		for s := int32(1); s <= steps; s++ {
			tallies = append(tallies, tr.Step(s))
		}
		return tallies, sms
	}

	ms, sms := scriptMachines(n, dial, push, answer)
	syncT, syncM := run(NewSync(ms), sms)
	reordered := false
	for seed := uint64(0); seed < scheduleSeeds; seed++ {
		ms, sms := scriptMachines(n, dial, push, answer)
		seededT, seededM := run(NewSeeded(ms, seed), sms)
		if !slices.Equal(syncT, seededT) {
			t.Fatalf("seed %d: tallies sync %+v seeded %+v", seed, syncT, seededT)
		}
		for v := range syncM {
			if syncM[v].recvSum != seededM[v].recvSum {
				t.Fatalf("seed %d, node %d: receipt sum sync %d seeded %d", seed, v, syncM[v].recvSum, seededM[v].recvSum)
			}
			got := slices.Clone(seededM[v].recvFrom)
			reordered = reordered || !slices.Equal(got, syncM[v].recvFrom)
			if slices.Sort(got); !slices.Equal(got, slices.Sorted(slices.Values(syncM[v].recvFrom))) {
				t.Fatalf("seed %d, node %d: receipts from %v, sync %v", seed, v, seededM[v].recvFrom, syncM[v].recvFrom)
			}
		}
	}
	if !reordered {
		t.Fatal("no seed delivered to any node in another order than Sync")
	}
}

// TestSeededScheduleReplays: a seeded schedule is a function of (seed,
// step) alone. Every node receives in the same order at GOMAXPROCS 1, 2
// and 8, and the node order is a permutation that a fresh transport with
// the same seed replays and another step or seed draws anew.
func TestSeededScheduleReplays(t *testing.T) {
	const n, steps = 1024, 4
	dial := func(id, step int32) int32 { return (id*id + step*3) % n }
	payload := func(id, step int32) any { return int(id) }
	receipts := func(seed uint64, procs int) [][]int32 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ms, sms := scriptMachines(n, dial, payload, payload)
		tr := NewSeeded(ms, seed)
		for s := int32(1); s <= steps; s++ {
			tr.Step(s)
		}
		logs := make([][]int32, n)
		for v, m := range sms {
			logs[v] = m.recvFrom
		}
		return logs
	}
	want := receipts(9, 1)
	for _, procs := range []int{2, 8} {
		if !slices.EqualFunc(receipts(9, procs), want, slices.Equal) {
			t.Fatalf("seed 9: receipt orders at GOMAXPROCS %d differ from GOMAXPROCS 1's", procs)
		}
	}
	if slices.EqualFunc(receipts(10, 1), want, slices.Equal) {
		t.Fatal("seeds 9 and 10 deliver in the same orders")
	}

	order := func(seed uint64, step int32) []int32 {
		ms, _ := scriptMachines(n, dial, nil, nil)
		tr := NewSeeded(ms, seed)
		tr.Step(step)
		return slices.Clone(tr.order)
	}
	o := order(9, 2)
	for i, v := range slices.Sorted(slices.Values(o)) {
		if v != int32(i) {
			t.Fatalf("seed 9, step 2: node order %v is not a permutation", o)
		}
	}
	if !slices.Equal(order(9, 2), o) {
		t.Fatal("seed 9, step 2: a fresh transport drew another node order")
	}
	if slices.Equal(order(9, 3), o) || slices.Equal(order(10, 2), o) {
		t.Fatal("another step or seed drew seed 9's step-2 node order")
	}
}

// TestTransportsOverNet smoke-checks that machines drawing from a Net's
// per-node streams dial identically on Sync and on a seeded schedule (the
// dial phase is the only randomized phase).
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
	ta := NewSeeded(mkMachines(NewNet(g, 42), &recA), 7)
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
				t.Fatalf("node %d dial %d: sync %d seeded %d", v, i, recS.dials[v][i], recA.dials[v][i])
			}
		}
	}
}

// funcMachine adapts a bare dial-and-push closure to the Machine
// interface; it answers nothing.
type funcMachine struct {
	onStep func(step int32) (int32, any)
}

func (m *funcMachine) OnStep(step int32) (int32, any, any) {
	d, p := m.onStep(step)
	return d, p, nil
}
func (m *funcMachine) OnReceive(from int32, p any) {}
func (m *funcMachine) OnStepEnd(step int32)        {}

// orderMachine logs its node's callbacks in the order they ran. Its
// payloads carry their step, and every receipt checks that all n nodes
// had finished dialing that step.
type orderMachine struct {
	id, n  int32
	dial   func(id, step int32) int32
	dialed []atomic.Int32 // shared: dialed[s] counts returned OnStep(s) calls
	log    []orderEvent
	early  int // receipts seen before every node had dialed their step
}

type orderEvent struct {
	kind byte // 's' OnStep, 'r' OnReceive, 'e' OnStepEnd
	step int32
}

// orderPushes and orderAnswers script which nodes send in a step.
func orderPushes(id, step int32) bool  { return (id+step)%3 != 0 }
func orderAnswers(id, step int32) bool { return (id+step)%4 != 0 }

func (m *orderMachine) OnStep(step int32) (int32, any, any) {
	m.log = append(m.log, orderEvent{'s', step})
	var push, answer any
	if orderPushes(m.id, step) {
		push = int(step)
	}
	if orderAnswers(m.id, step) {
		answer = int(step)
	}
	d := m.dial(m.id, step)
	m.dialed[step].Add(1)
	return d, push, answer
}

func (m *orderMachine) OnReceive(from int32, payload any) {
	s := int32(payload.(int))
	m.log = append(m.log, orderEvent{'r', s})
	if m.dialed[s].Load() != m.n {
		m.early++
	}
}

func (m *orderMachine) OnStepEnd(step int32) { m.log = append(m.log, orderEvent{'e', step}) }

// TestSeededOrderingContract pins the per-node order a seeded schedule
// keeps while a node's OnStepEnd runs as soon as its own exchange is
// done: every OnReceive of step s precedes the node's OnStepEnd(s), which
// precedes its OnStep(s+1), and no payload of step s is received before
// every node's OnStep(s) has returned. At n = 512 par.For runs two
// chunks once GOMAXPROCS ≥ 2, so the race detector sees them overlap.
func TestSeededOrderingContract(t *testing.T) {
	const n, steps = 512, 6
	// Nodes 16… crowd onto few of the nodes below 16 (squares mod 16), and
	// nodes below 16 each call one of the rest, so in-degrees span 0 to
	// over 100.
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
			if orderPushes(v, s) {
				recvs[s][u]++
			}
			if orderAnswers(u, s) {
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

	for seed := uint64(0); seed < scheduleSeeds; seed++ {
		dialed := make([]atomic.Int32, steps+1)
		ms := make([]Machine, n)
		oms := make([]*orderMachine, n)
		for v := range ms {
			oms[v] = &orderMachine{id: int32(v), n: n, dial: dial, dialed: dialed}
			ms[v] = oms[v]
		}
		tr := NewSeeded(ms, seed)
		for s := int32(1); s <= steps; s++ {
			tr.Step(s)
		}

		for v, m := range oms {
			if m.early != 0 {
				t.Fatalf("seed %d, node %d: %d receipts before every node had dialed", seed, v, m.early)
			}
			i := 0
			for s := int32(1); s <= steps; s++ {
				if i >= len(m.log) || m.log[i] != (orderEvent{'s', s}) {
					t.Fatalf("seed %d, node %d: want OnStep(%d) at event %d, log %v", seed, v, s, i, m.log)
				}
				i++
				r := 0
				for ; i < len(m.log) && m.log[i].kind != 'e'; i++ {
					switch e := m.log[i]; {
					case e.step != s:
						t.Fatalf("seed %d, node %d: step-%d event %c inside step %d, log %v", seed, v, e.step, e.kind, s, m.log)
					case e.kind == 'r':
						r++
					default:
						t.Fatalf("seed %d, node %d: %c before OnStepEnd(%d), log %v", seed, v, e.kind, s, m.log)
					}
				}
				if i >= len(m.log) || m.log[i].step != s {
					t.Fatalf("seed %d, node %d: want OnStepEnd(%d) at event %d, log %v", seed, v, s, i, m.log)
				}
				i++
				if r != recvs[s][v] {
					t.Fatalf("seed %d, node %d step %d: %d receipts before OnStepEnd, want %d", seed, v, s, r, recvs[s][v])
				}
			}
			if i != len(m.log) {
				t.Fatalf("seed %d, node %d: events after the last OnStepEnd: %v", seed, v, m.log[i:])
			}
		}
	}
}

// quietMachine dials on a fixed script and sends only nil or zero-size
// payloads, so a step through it allocates only what the transport does.
// At step crowd every node dials node 0.
type quietMachine struct{ id, n, crowd int32 }

func (m quietMachine) dial(step int32) int32 {
	switch {
	case step == m.crowd:
		return 0
	case (m.id+step)%4 == 0:
		return NoDial
	case (m.id+step)%4 == 1:
		return (m.id + 1) % m.n
	}
	return (m.id*3 + step) % m.n
}

func (m quietMachine) OnStep(step int32) (int32, any, any) {
	var push, answer any
	if (m.id+step)%4 > 1 {
		push = struct{}{}
	}
	if (m.id+step)%2 == 0 {
		answer = struct{}{}
	}
	return m.dial(step), push, answer
}

func (quietMachine) OnReceive(int32, any) {}
func (quietMachine) OnStepEnd(int32)      {}

// TestSeededStepAllocs pins the allocation-free seeded step: from the
// second step on (testing.AllocsPerRun's warm-up call is the first) a
// step allocates nothing, at every n, also at a step whose largest
// in-degree exceeds every earlier one.
func TestSeededStepAllocs(t *testing.T) {
	const steps = 60
	const crowd = steps + 2 // the measured run of the second AllocsPerRun
	for _, n := range []int{64, 1024} {
		ms := make([]Machine, n)
		for v := range ms {
			ms[v] = quietMachine{id: int32(v), n: int32(n), crowd: crowd}
		}
		maxIn := 0
		for s := int32(0); s < crowd; s++ {
			in := make([]int, n)
			for _, m := range ms {
				if u := m.(quietMachine).dial(s); u >= 0 {
					in[u]++
				}
			}
			maxIn = max(maxIn, slices.Max(in))
		}
		if maxIn >= n {
			t.Fatalf("n = %d: an in-degree of %d before step %d, want the crowd's %d to exceed it", n, maxIn, crowd, n)
		}
		tr := NewSeeded(ms, 3)
		step := int32(0)
		next := func() {
			tr.Step(step)
			step++
		}
		allocs := testing.AllocsPerRun(steps, next)
		crowded := testing.AllocsPerRun(1, next)
		if step != crowd+1 {
			t.Fatalf("n = %d: ran %d steps, want the last to be step %d", n, step, crowd)
		}
		if allocs != 0 || crowded != 0 {
			t.Errorf("n = %d: a seeded step allocated %v times per step and %v at the crowded step, want 0", n, allocs, crowded)
		}
	}
}

// stepStartMachine answers (id, step) and pushes (id, step) in another
// type. Its OnReceive clobbers the step an answer is made from, so an
// answer computed after any receipt would carry the wrong step.
type stepStartMachine struct {
	id, n int32
	step  int32
	log   []stepReceipt
}

type (
	pushOf   [2]int32 // the pusher's id and step
	answerOf [2]int32 // the answering callee's id and step
)

type stepReceipt struct {
	from    int32
	payload any
}

// stepStartDial has nodes ≡ 0 mod 5 dial themselves, keeps a few
// channels closed and crowds the rest onto a third of the nodes.
func stepStartDial(id, step, n int32) int32 {
	switch {
	case id%5 == 0:
		return id
	case (id+step)%7 == 0:
		return NoDial
	}
	return (id*7 + step*3) % (n / 3)
}

// stepStartAnswers: nodes with (id + step) ≡ 0 mod 3 answer nothing.
func stepStartAnswers(id, step int32) bool { return (id+step)%3 != 0 }

func (m *stepStartMachine) OnStep(step int32) (int32, any, any) {
	m.step = step
	var answer any
	if stepStartAnswers(m.id, step) {
		answer = answerOf{m.id, m.step}
	}
	return stepStartDial(m.id, step, m.n), pushOf{m.id, step}, answer
}

func (m *stepStartMachine) OnReceive(from int32, payload any) {
	m.log = append(m.log, stepReceipt{from, payload})
	m.step = -1
}

func (m *stepStartMachine) OnStepEnd(step int32) {}

// TestAnswerIsStepStart: on Sync and on a seeded schedule, every caller of step s
// receives exactly its callee's step-s answer (nothing when the callee
// answers nil), a node that dials itself receives its own push and its
// own answer, and the tally counts one response per answered caller.
func TestAnswerIsStepStart(t *testing.T) {
	const n, steps = 60, 5
	for name, mk := range map[string]func([]Machine) Transport{
		"Sync":   func(ms []Machine) Transport { return NewSync(ms) },
		"Seeded": func(ms []Machine) Transport { return NewSeeded(ms, 5) },
	} {
		ms := make([]Machine, n)
		sms := make([]*stepStartMachine, n)
		for v := range ms {
			sms[v] = &stepStartMachine{id: int32(v), n: n}
			ms[v] = sms[v]
		}
		tr := mk(ms)
		selfAnswered := 0
		for s := int32(1); s <= steps; s++ {
			for _, m := range sms {
				m.log = m.log[:0]
			}
			tl := tr.Step(s)
			var responses int64
			pushes, in := make([]int, n), make([]int, n)
			for v := int32(0); v < n; v++ {
				u := stepStartDial(v, s, n)
				if u >= 0 {
					in[u]++
				}
				var answers []stepReceipt
				for _, r := range sms[v].log {
					switch p := r.payload.(type) {
					case pushOf:
						if p != (pushOf{r.from, s}) {
							t.Fatalf("%s step %d: node %d received push %v from %d", name, s, v, p, r.from)
						}
						pushes[v]++
					case answerOf:
						answers = append(answers, r)
					}
				}
				switch {
				case u < 0 || !stepStartAnswers(u, s):
					if len(answers) != 0 {
						t.Fatalf("%s step %d: node %d (callee %d) received answers %v, want none", name, s, v, u, answers)
					}
				case len(answers) != 1 || answers[0].from != u || answers[0].payload != (answerOf{u, s}):
					t.Fatalf("%s step %d: node %d received answers %v, want only %v from %d", name, s, v, answers, answerOf{u, s}, u)
				default:
					responses++
					if u == v {
						selfAnswered++
					}
				}
			}
			if !slices.Equal(pushes, in) {
				t.Fatalf("%s step %d: pushes received per node %v, want the in-degrees %v", name, s, pushes, in)
			}
			if tl.Responses != responses {
				t.Fatalf("%s step %d: tally counts %d responses, want %d", name, s, tl.Responses, responses)
			}
		}
		if selfAnswered == 0 {
			t.Fatalf("%s: no node answered its own call", name)
		}
	}
}
