package core

import (
	"encoding/binary"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

func TestElectLeaderBasics(t *testing.T) {
	for _, n := range []int{256, 1024} {
		g := testGraph(n, uint64(n)+40)
		res := ElectLeaderOver(g, DefaultLeaderParams(n), 1, SyncTransport)
		if !res.Unique {
			t.Fatalf("n=%d: winners != 1: %+v", n, res)
		}
		if res.Leader < 0 || int(res.Leader) >= n {
			t.Fatalf("n=%d: leader out of range: %d", n, res.Leader)
		}
		if res.AwareCount != n {
			t.Errorf("n=%d: only %d/%d nodes aware of the leader", n, res.AwareCount, n)
		}
		if res.Candidates < 1 {
			t.Errorf("n=%d: no candidates", n)
		}
	}
}

func TestElectLeaderIsMinimumCandidate(t *testing.T) {
	// With node indices as IDs, the winner must be the minimum-index
	// candidate. We recover the candidate set by rerunning the same
	// per-node coins.
	n := 1024
	g := testGraph(n, 44)
	seed := uint64(9)
	p := DefaultLeaderParams(n)
	res := ElectLeaderOver(g, p, seed, SyncTransport)

	minCand := int32(-1)
	for v := 0; v < n; v++ {
		rng := xrand.New(xrand.SeedFor(seed, uint64(v)))
		if rng.Bernoulli(p.CandidateProb) {
			minCand = int32(v)
			break
		}
	}
	if minCand < 0 {
		t.Skip("no candidate under these coins (vanishingly rare)")
	}
	if res.Leader != minCand {
		t.Errorf("leader = %d, want minimum candidate %d", res.Leader, minCand)
	}
}

func TestElectLeaderTransmissionBound(t *testing.T) {
	// Lemma 18: O(n·loglog n) transmissions. Generous constant check.
	n := 4096
	g := testGraph(n, 45)
	res := ElectLeaderOver(g, DefaultLeaderParams(n), 2, SyncTransport)
	if !res.Unique {
		t.Fatal("election failed")
	}
	bound := 12 * float64(n) * LogLogn(n)
	if float64(res.Meter.Transmissions) > bound {
		t.Errorf("transmissions %d exceed 12·n·loglog n = %v", res.Meter.Transmissions, bound)
	}
}

func TestElectLeaderDeterministic(t *testing.T) {
	g := testGraph(512, 46)
	p := DefaultLeaderParams(512)
	a := ElectLeaderOver(g, p, 7, SyncTransport)
	b := ElectLeaderOver(g, p, 7, SyncTransport)
	if a.Leader != b.Leader || a.Meter != b.Meter {
		t.Error("same seed produced different elections")
	}
}

func TestElectLeaderWithFailures(t *testing.T) {
	// Lemma 19's regime: random non-malicious failures; the election must
	// still produce a unique leader among healthy nodes, and healthy nodes
	// must not believe a failed node's ID unless that node was a candidate
	// before failing — here failures are injected from the start, so
	// failed nodes never even candidate.
	n := 1024
	g := testGraph(n, 47)
	nt := phone.NewNet(g, 3)
	rng := xrand.New(99)
	for _, v := range rng.SampleK(n, 40) {
		nt.Failed[v] = true
	}
	res := electLeaderOver(nt, DefaultLeaderParams(n), SyncTransport)
	if !res.Unique {
		t.Fatalf("election with failures not unique: %+v", res)
	}
	if nt.Failed[res.Leader] {
		t.Error("a failed node won the election")
	}
	healthy := n - nt.FailCount()
	if res.AwareCount < healthy*95/100 {
		t.Errorf("only %d/%d healthy nodes aware of leader", res.AwareCount, healthy)
	}
}

func TestElectLeaderTinyGraphFallback(t *testing.T) {
	// On tiny graphs the candidate coin may miss; the fallback must still
	// elect someone rather than hang.
	g := testGraph(16, 48)
	res := ElectLeaderOver(g, LeaderParams{
		CandidateProb: 0, // force the fallback path
		PushSteps:     8,
		PullSteps:     4,
		AvoidLast:     3,
	}, 4, SyncTransport)
	if !res.Unique || res.Leader != 0 {
		t.Errorf("fallback election wrong: %+v", res)
	}
}

func TestElectLeaderAvoidLastValidation(t *testing.T) {
	// Out-of-range AvoidLast falls back to 3 rather than panicking.
	g := testGraph(128, 49)
	p := DefaultLeaderParams(128)
	p.AvoidLast = 99
	res := ElectLeaderOver(g, p, 5, SyncTransport)
	if !res.Unique {
		t.Error("election failed with clamped AvoidLast")
	}
}

// TestLeaderStepAllocs: once every node knows the winner's ID no payload
// changes, and the wire payload is boxed once per change, not once per
// send, so a steady-state step allocates at most a small constant at any
// n, in the push stage and in the pull stage alike.
func TestLeaderStepAllocs(t *testing.T) {
	const maxAllocs = 1
	for _, n := range []int{256, 2048} {
		p := DefaultLeaderParams(n)
		p.PushSteps = 100
		set := NewLeaderSet(phone.NewNet(testGraph(n, 50), 1), p)
		s := phone.NewSync(set.ms)
		step := int32(1)
		for ; step <= 60; step++ {
			s.Step(step)
		}
		if !set.Complete() {
			t.Fatalf("n = %d: the push stage has not converged by step %d", n, step)
		}
		for _, stage := range []struct {
			name string
			from int32
		}{{"push", 61}, {"pull", 101}} {
			step = stage.from
			allocs := testing.AllocsPerRun(20, func() {
				s.Step(step)
				step++
			})
			if allocs > maxAllocs {
				t.Errorf("n = %d, %s stage: a leader step allocated %v times, want at most %d", n, stage.name, allocs, maxAllocs)
			}
		}
	}
}

// TestLeaderDropsForeignPayload: a payload that is not a 4-byte candidate
// ID is dropped, not asserted on: neither a foreign type nor the ID of a
// node out of range or of one that is no candidate (a gossipd peer can
// send any bytes).
func TestLeaderDropsForeignPayload(t *testing.T) {
	set := NewLeaderSet(phone.NewNet(testGraph(64, 51), 1), DefaultLeaderParams(64))
	nonCand := int32(-1)
	for v := range set.nodes {
		if !set.nodes[v].candidate {
			nonCand = int32(v)
			break
		}
	}
	if nonCand < 0 {
		t.Fatal("every node is a candidate")
	}
	m := &set.nodes[5]
	before := *m
	id := func(v int32) []byte { return binary.BigEndian.AppendUint32(nil, uint32(v)) }
	for _, payload := range []any{42, "id", []byte{1, 2}, &mcPayload{}, id(-1), id(64), id(noID), id(nonCand)} {
		m.OnReceive(0, payload)
	}
	if m.next != before.next || m.active != before.active {
		t.Errorf("a foreign payload changed node 5: next %d → %d, active %v → %v", before.next, m.next, before.active, m.active)
	}
}

// TestLeaderFoldIsMinimum: whatever order a node receives candidate IDs
// in within a step, it ends the step knowing the minimum of its
// step-start ID and every ID it received, and answers with that ID's
// wire.
func TestLeaderFoldIsMinimum(t *testing.T) {
	const n = 64
	p := DefaultLeaderParams(n)
	p.CandidateProb = 1 // every node is a candidate, so every ID has a wire
	set := NewLeaderSet(phone.NewNet(graph.Complete(n), 1), p)
	m := &set.nodes[40]
	ids := []int32{9, 3, 7, 12}
	step := int32(1)
	for _, start := range []int32{noID, 40, 5, 2} {
		want := start
		for _, id := range ids {
			want = min(want, id)
		}
		for _, order := range permutations(ids) {
			m.cur, m.next, m.curWire = start, start, nil
			if start != noID {
				m.curWire = set.nodes[start].wire
			}
			for _, id := range order {
				m.OnReceive(id, set.nodes[id].wire)
			}
			m.OnStepEnd(step)
			step++
			got, _ := DecodeLeaderID(m.curWire.([]byte))
			if m.cur != want || got != want {
				t.Errorf("start %d, receipts %v: cur %d, wire %d, want %d", start, order, m.cur, got, want)
			}
		}
	}
}

// permutations returns every order of xs.
func permutations(xs []int32) [][]int32 {
	if len(xs) <= 1 {
		return [][]int32{append([]int32(nil), xs...)}
	}
	var out [][]int32
	for i := range xs {
		rest := append(append([]int32(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int32{xs[i]}, p...))
		}
	}
	return out
}
