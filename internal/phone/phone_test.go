package phone

import (
	"slices"
	"testing"

	"gossip/internal/graph"
)

func ring(n int) *graph.Graph {
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{U: int32(i), V: int32((i + 1) % n)}
	}
	return graph.FromEdges(n, edges)
}

func TestRoundIncomingIndex(t *testing.T) {
	r := NewRound(5)
	r.Out[0] = 2
	r.Out[1] = 2
	r.Out[3] = 4
	r.BuildIncoming()
	in2 := r.Incoming(2)
	if len(in2) != 2 || in2[0] != 0 || in2[1] != 1 {
		t.Errorf("Incoming(2) = %v", in2)
	}
	if len(r.Incoming(0)) != 0 {
		t.Error("Incoming(0) should be empty")
	}
	if r.InDegree(4) != 1 {
		t.Errorf("InDegree(4) = %d", r.InDegree(4))
	}
}

func TestRoundReset(t *testing.T) {
	r := NewRound(3)
	r.Out[0] = 1
	r.BuildIncoming()
	r.Reset()
	if r.Out[0] != NoDial {
		t.Error("Reset did not close channels")
	}
	defer func() {
		if recover() == nil {
			t.Error("Incoming after Reset should panic until rebuilt")
		}
	}()
	r.Incoming(1)
}

func TestRoundIncomingCallersSorted(t *testing.T) {
	r := NewRound(6)
	r.Out[5] = 0
	r.Out[2] = 0
	r.Out[4] = 0
	r.BuildIncoming()
	in := r.Incoming(0)
	if len(in) != 3 || in[0] != 2 || in[1] != 4 || in[2] != 5 {
		t.Errorf("Incoming(0) = %v, want callers in increasing id order", in)
	}
}

// dialAll has every node of nt draw its uniform dial from its own
// stream — what the push–pull, broadcast and fast-gossip machines do in
// OnStep — and inverts the round the way Sync.Step does.
func dialAll(nt *Net, r *Round) {
	r.Reset()
	for v := int32(0); int(v) < len(r.Out); v++ {
		r.Out[v] = nt.G.RandomNeighbor(v, nt.RNG(v))
	}
	r.BuildIncoming()
}

func TestNetDialStaysOnGraph(t *testing.T) {
	g := ring(10)
	nt := NewNet(g, 1)
	r := NewRound(10)
	dialAll(nt, r)
	for v := int32(0); v < 10; v++ {
		u := r.Out[v]
		if u == NoDial {
			t.Fatalf("node %d did not dial", v)
		}
		if !slices.Contains(g.Neighbors(v), u) {
			t.Fatalf("node %d dialed non-neighbor %d", v, u)
		}
	}
}

func TestNetDeterministicAcrossInstances(t *testing.T) {
	g := ring(64)
	a, b := NewNet(g, 99), NewNet(g, 99)
	ra, rb := NewRound(64), NewRound(64)
	for step := 0; step < 10; step++ {
		dialAll(a, ra)
		dialAll(b, rb)
		for v := int32(0); v < 64; v++ {
			if ra.Out[v] != rb.Out[v] {
				t.Fatalf("step %d node %d: dials differ", step, v)
			}
			if ra.InDegree(v) != rb.InDegree(v) {
				t.Fatalf("step %d node %d: incoming indexes differ", step, v)
			}
		}
	}
}

// The uniform dial's failure check lives in the machines (see
// core.TestFailedMachinesDoNotDial); the one dial Net draws itself is
// open-avoid, and it must stay closed for a failed node without
// consuming its stream or its memory.
func TestFailedNodesDoNotDial(t *testing.T) {
	nt := NewNet(ring(10), 2)
	nt.Failed[3] = true
	nt.Failed[7] = true
	for _, v := range []int32{3, 7} {
		if u := nt.OpenAvoid(v); u != NoDial {
			t.Errorf("failed node %d dialed %d", v, u)
		}
		if nt.Memory[v].Len() != 0 {
			t.Errorf("failed node %d remembered a link", v)
		}
	}
	if a, b := nt.RNG(3).Uint64(), NewNet(ring(10), 2).RNG(3).Uint64(); a != b {
		t.Error("failed node's stream was consumed")
	}
	if nt.FailCount() != 2 {
		t.Errorf("FailCount = %d", nt.FailCount())
	}
}

func TestDialAvoidRespectsMemory(t *testing.T) {
	// Star center with 5 leaves; remember 4 of them, must dial the fifth.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5}}
	g := graph.FromEdges(6, edges)
	nt := NewNet(g, 3)
	for i := 0; i < 50; i++ {
		nt.Memory[0] = LinkMemory{}
		for _, u := range []int32{1, 2, 3, 4} {
			nt.Memory[0].Remember(u)
		}
		if u := nt.OpenAvoid(0); u != 5 {
			t.Fatalf("OpenAvoid dialed %d, want 5", u)
		}
	}
}

func TestLinkMemoryFIFO(t *testing.T) {
	var lm LinkMemory
	for _, u := range []int32{10, 20, 30, 40} {
		lm.Remember(u)
	}
	if lm.Len() != 4 {
		t.Fatalf("Len = %d", lm.Len())
	}
	for _, u := range []int32{10, 20, 30, 40} {
		if !lm.Contains(u) {
			t.Errorf("missing %d", u)
		}
	}
	lm.Remember(50) // evicts 10
	if lm.Contains(10) {
		t.Error("oldest entry not evicted")
	}
	if !lm.Contains(50) || !lm.Contains(20) {
		t.Error("eviction removed the wrong entry")
	}
	if lm.Len() != 4 {
		t.Errorf("Len after eviction = %d", lm.Len())
	}
}

func TestLinkMemoryRestrictedCapacity(t *testing.T) {
	lm := NewLinkMemory(2)
	lm.Remember(1)
	lm.Remember(2)
	lm.Remember(3)
	if lm.Contains(1) {
		t.Error("capacity-2 memory kept 3 entries")
	}
	if !lm.Contains(2) || !lm.Contains(3) {
		t.Error("capacity-2 memory lost fresh entries")
	}
	if got := len(lm.Links()); got != 2 {
		t.Errorf("Links len = %d", got)
	}
}

func TestMeterAccounting(t *testing.T) {
	var m Meter
	m.Open(3)
	m.Push(2)
	m.Exchange(5)
	m.Step()
	if m.Opened != 3 {
		t.Errorf("Opened = %d", m.Opened)
	}
	if m.Transmissions != 7 { // 2 pushes + 5 exchanges
		t.Errorf("Transmissions = %d", m.Transmissions)
	}
	if m.Packets != 12 { // 2 + 10
		t.Errorf("Packets = %d", m.Packets)
	}
	if m.Steps != 1 {
		t.Errorf("Steps = %d", m.Steps)
	}
	var sum Meter
	sum.Add(m)
	sum.Add(m)
	if sum.Transmissions != 14 || sum.Steps != 2 {
		t.Error("Meter.Add wrong")
	}
}

func TestPerNode(t *testing.T) {
	if PerNode(10, 4) != 2.5 {
		t.Error("PerNode wrong")
	}
	if PerNode(10, 0) != 0 {
		t.Error("PerNode by zero")
	}
}

func TestDialDistributionUniform(t *testing.T) {
	// On a ring, each node has 2 neighbors; over many steps each side
	// should be dialed about half the time.
	g := ring(8)
	nt := NewNet(g, 7)
	left := 0
	const steps = 4000
	for i := 0; i < steps; i++ {
		if g.RandomNeighbor(0, nt.RNG(0)) == 7 {
			left++
		}
	}
	frac := float64(left) / steps
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("dial imbalance: %v", frac)
	}
}

func TestNetRNGIndependentStreams(t *testing.T) {
	g := ring(4)
	nt := NewNet(g, 5)
	a := nt.RNG(0).Uint64()
	b := nt.RNG(1).Uint64()
	if a == b {
		t.Error("per-node streams should differ (collision vanishingly unlikely)")
	}
}
