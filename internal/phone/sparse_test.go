package phone

import (
	"slices"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/xrand"
)

// sparseDial scripts a step's dials for n = 1024: step 1 has no dialer,
// steps 2–5 at most a tenth of the nodes (among them nodes dialing
// themselves, and nodes dialing a dialer, which then receives pushes as
// well as its callee's answer), and step 6 has every node dial its
// successor.
func sparseDial(id, step int32) int32 {
	const n = 1024
	switch {
	case step == 1:
		return NoDial
	case step == 6:
		return (id + 1) % n
	case id%97 == 3:
		return id
	case id%16 == 0:
		return (id*7 + step*5) % n
	case id%32 == 5 && step%2 == 0:
		return id - 5
	}
	return NoDial
}

// sparsePush has every node with id ≢ 0 mod 3 push, whether it dials or
// not: the push of a NoDial node is dropped.
func sparsePush(id, step int32) any {
	if id%3 == 0 {
		return nil
	}
	return int(id*10 + step)
}

// sparseAnswer has the nodes ≡ 1 mod 4 answer nil.
func sparseAnswer(id, step int32) any {
	if id%4 == 1 {
		return nil
	}
	return int(-id - step)
}

// TestSparseStepMatchesDense runs scripted machines on Sync with every
// step forced sparse, with every step forced dense, and with the
// canonical choice, and requires the same tallies and, at every node, the
// same receipts in the same order and the same OnStepEnd calls; the
// tallies must be the ones the script implies. It checks that the
// canonical choice indexed steps 1–5 sparsely and step 6 densely.
func TestSparseStepMatchesDense(t *testing.T) {
	const n, steps = 1024, 6
	run := func(below int64) ([]StepTally, []*scriptMachine, []bool) {
		ms, sms := scriptMachines(n, sparseDial, sparsePush, sparseAnswer)
		tr := NewSync(ms)
		if below >= 0 {
			tr.sparseBelow = below
		}
		var tallies []StepTally
		var dense []bool
		for s := int32(1); s <= steps; s++ {
			tallies = append(tallies, tr.Step(s))
			dense = append(dense, tr.round.built)
		}
		return tallies, sms, dense
	}
	wantT, want, _ := run(0)
	for s := int32(1); s <= steps; s++ { // the tally the script implies
		var tl StepTally
		for v := int32(0); v < n; v++ {
			if u := sparseDial(v, s); u >= 0 {
				tl.Opened++
				if sparsePush(v, s) != nil {
					tl.Pushes++
				}
				if sparseAnswer(u, s) != nil {
					tl.Responses++
				}
			}
		}
		if wantT[s-1] != tl {
			t.Fatalf("step %d: the dense path tallied %+v, the script %+v", s, wantT[s-1], tl)
		}
	}
	for _, below := range []int64{n + 1, -1} {
		gotT, got, dense := run(below)
		if !slices.Equal(gotT, wantT) {
			t.Fatalf("sparseBelow %d: tallies %+v, dense %+v", below, gotT, wantT)
		}
		for v := range got {
			if !slices.Equal(got[v].recvFrom, want[v].recvFrom) || got[v].recvSum != want[v].recvSum || !slices.Equal(got[v].ends, want[v].ends) {
				t.Fatalf("sparseBelow %d, node %d: receipts from %v (sum %d), ends %v; dense %v (sum %d), ends %v",
					below, v, got[v].recvFrom, got[v].recvSum, got[v].ends, want[v].recvFrom, want[v].recvSum, want[v].ends)
			}
		}
		if wantDense := [steps]bool{5: true}; below < 0 && [steps]bool(dense) != wantDense {
			t.Fatalf("the canonical Sync indexed steps densely: %v, want %v", dense, wantDense)
		}
	}
	// The script covers what it says: node 3 calls itself, and at step 2
	// node 5 calls node 0, which dials too.
	if !slices.Contains(want[3].recvFrom, 3) || !slices.Contains(want[0].recvFrom, 5) {
		t.Fatalf("script lost its self-dial or its dialing callee: node 3 from %v, node 0 from %v", want[3].recvFrom, want[0].recvFrom)
	}
}

// sparseMachine dials on one node in sixteen, DialUniform and DialAvoid
// alternately, pushes and answers a payload boxed once, and allocates
// nothing in its callbacks.
type sparseMachine struct {
	id int32
	nt *Net
}

var sparsePayload any = 1

func (m sparseMachine) OnStep(step int32) (int32, any, any) {
	switch {
	case (m.id+step)%16 != 0:
		return NoDial, nil, sparsePayload
	case step%2 == 0:
		return DialAvoid, sparsePayload, sparsePayload
	}
	return DialUniform, sparsePayload, sparsePayload
}

func (sparseMachine) OnReceive(int32, any) {}
func (sparseMachine) OnStepEnd(int32)      {}
func (m sparseMachine) Net() *Net          { return m.nt }

// TestSparseStepZeroAlloc: a sparse step, DialAvoid's draws included,
// allocates nothing.
func TestSparseStepZeroAlloc(t *testing.T) {
	const n = 2048
	nt := NewNet(graph.ErdosRenyi(n, 0.01, xrand.New(3)), 5)
	nt.InitMemory(MemorySlots)
	ms := make([]Machine, n)
	for v := range ms {
		ms[v] = sparseMachine{id: int32(v), nt: nt}
	}
	tr := NewSync(ms)
	step := int32(0)
	allocs := testing.AllocsPerRun(50, func() {
		step++
		if tr.Step(step).Opened == 0 || tr.round.built {
			t.Fatalf("step %d was not a sparse step with channels", step)
		}
	})
	if allocs != 0 {
		t.Errorf("a sparse step allocated %v times, want 0", allocs)
	}
}
