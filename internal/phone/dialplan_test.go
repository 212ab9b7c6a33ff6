package phone

import (
	"testing"

	"gossip/internal/graph"
)

func pathGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	return graph.FromEdges(n, edges)
}

func TestDialPlanTakeStep(t *testing.T) {
	p := NewDialPlan(3)
	p.Add(0, PlannedDial{Step: 1, Peer: 2})
	p.Add(0, PlannedDial{Step: 3, Peer: 1})
	p.Add(1, PlannedDial{Step: 2, Peer: 0, Tag: 1})
	p.Add(1, PlannedDial{Step: 2, Peer: 2, Tag: 1})

	if ds := p.TakeStep(0, 1); len(ds) != 1 || ds[0].Peer != 2 {
		t.Fatalf("step 1: %v", ds)
	}
	if ds := p.TakeStep(0, 2); len(ds) != 0 {
		t.Fatalf("step 2 should be empty: %v", ds)
	}
	if ds := p.TakeStep(0, 3); len(ds) != 1 || ds[0].Peer != 1 {
		t.Fatalf("step 3: %v", ds)
	}
	// Multiple entries at one step come back together.
	if ds := p.TakeStep(1, 2); len(ds) != 2 || ds[0].Tag != 1 {
		t.Fatalf("node 1 step 2: %v", ds)
	}
	if ds := p.TakeStep(2, 2); len(ds) != 0 {
		t.Fatalf("node 2 was given no dials: %v", ds)
	}
}

func TestDialPlanSkipsStaleEntries(t *testing.T) {
	p := NewDialPlan(1)
	p.Add(0, PlannedDial{Step: 1, Peer: 9})
	p.Add(0, PlannedDial{Step: 4, Peer: 8})
	// Node never queried steps 1-3 (e.g. it was failed); querying step 4
	// must skip the stale step-1 entry rather than return it.
	if ds := p.TakeStep(0, 4); len(ds) != 1 || ds[0].Peer != 8 {
		t.Fatalf("stale entries not skipped: %v", ds)
	}
}

func TestDialPlanResetReplays(t *testing.T) {
	p := NewDialPlan(1)
	p.Add(0, PlannedDial{Step: 2, Peer: 5})
	p.TakeStep(0, 2)
	p.Reset()
	if ds := p.TakeStep(0, 2); len(ds) != 1 {
		t.Fatal("reset did not rewind cursors")
	}
}

func TestDialPlanOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	p := NewDialPlan(1)
	p.Add(0, PlannedDial{Step: 5, Peer: 1})
	p.Add(0, PlannedDial{Step: 4, Peer: 2})
}

func TestOpenAvoidRemembersAndAvoids(t *testing.T) {
	nt := NewNet(pathGraph(8), 11)
	nt.InitMemory(2)
	u := nt.OpenAvoid(3)
	if u != 2 && u != 4 {
		t.Fatalf("OpenAvoid dialed non-neighbor %d", u)
	}
	if !nt.Memory[3].Contains(u) {
		t.Fatal("OpenAvoid did not remember the link")
	}
	// Node 3 has exactly two neighbors and a 2-slot memory: after two
	// distinct dials, everything is remembered and OpenAvoid returns NoDial.
	v := nt.OpenAvoid(3)
	if v == u {
		t.Fatal("OpenAvoid redialed a remembered link")
	}
	if w := nt.OpenAvoid(3); w != NoDial {
		t.Fatalf("OpenAvoid with full memory dialed %d", w)
	}
	nt.Failed[3] = true
	if w := nt.OpenAvoid(3); w != NoDial {
		t.Fatal("failed node dialed")
	}
}
