package core

import (
	"testing"

	"gossip/internal/phone"
)

// Edge cases of the gather machinery that random property tests are
// unlikely to hit.

func TestGatherEmptyTree(t *testing.T) {
	// A tree with no edges (isolated root): only the root's own message
	// is "gathered".
	tree := &Tree{Root: 0, N: 3, Steps: 5, InformedAt: []int32{0, -1, -1}}
	plan := gatherStructural(tree, make([]bool, 3))
	if plan.Count != 1 || !plan.Reached[0] || plan.Reached[1] {
		t.Errorf("empty tree plan: %+v", plan)
	}
	if plan.Meter.Transmissions != 0 {
		t.Error("empty tree should cost nothing")
	}
}

func TestGatherAllChildrenFailed(t *testing.T) {
	// Root contacted two children; both fail. Only the root survives.
	tree := &Tree{
		Root: 0, N: 3, Steps: 4,
		InformedAt: []int32{0, 1, 2},
		Edges: []GatherEdge{
			{Child: 1, Parent: 0, T: 1, Kind: PushContact},
			{Child: 2, Parent: 0, T: 2, Kind: PushContact},
		},
	}
	failed := []bool{false, true, true}
	plan := gatherStructural(tree, failed)
	if plan.Count != 1 {
		t.Errorf("Count = %d, want 1", plan.Count)
	}
	// The root still opens the polls (it cannot know its children died),
	// but no data crosses.
	if plan.Meter.Opened != 2 || plan.Meter.Transmissions != 0 {
		t.Errorf("meter = %+v", plan.Meter)
	}
}

func TestGatherFailedIntermediateCutsChain(t *testing.T) {
	// Chain root <- a <- b; a fails. b's message must be lost, and the
	// exact replay must agree.
	tree := &Tree{
		Root: 0, N: 3, Steps: 6,
		InformedAt: []int32{0, 1, 2},
		Edges: []GatherEdge{
			{Child: 1, Parent: 0, T: 1, Kind: PushContact}, // gather step 6
			{Child: 2, Parent: 1, T: 2, Kind: PushContact}, // gather step 5
		},
	}
	failed := []bool{false, true, false}
	plan := gatherStructural(tree, failed)
	if plan.Reached[2] {
		t.Error("message behind a failed node reached the root")
	}
	rootSet, _ := gatherExact(tree, failed)
	if rootSet.Contains(2) || !rootSet.Contains(0) {
		t.Errorf("exact root set = %v", rootSet)
	}
}

func TestGatherTimingRespectedStrictly(t *testing.T) {
	// b -> a at gather step 5, a -> root at gather step 5 as well: a's
	// packet to the root must NOT include b (same-step content is not
	// forwardable); with a -> root at step 6 it must.
	mk := func(tA int32) *Tree {
		return &Tree{
			Root: 0, N: 3, Steps: 7,
			InformedAt: []int32{0, 1, 2},
			Edges: []GatherEdge{
				// Recorded ascending T; gather step = Steps - T + 1.
				{Child: 1, Parent: 0, T: tA, Kind: PushContact},
				{Child: 2, Parent: 1, T: 3, Kind: PushContact}, // gather step 5
			},
		}
	}
	healthy := make([]bool, 3)

	same := gatherStructural(mk(3), healthy) // a->root also step 5
	if same.Reached[2] {
		t.Error("same-step relay should not deliver")
	}
	later := gatherStructural(mk(2), healthy) // a->root at step 6
	if !later.Reached[2] {
		t.Error("next-step relay should deliver")
	}

	// Exact replay agrees on both.
	rootSame, _ := gatherExact(mk(3), healthy)
	rootLater, _ := gatherExact(mk(2), healthy)
	if rootSame.Contains(2) || !rootLater.Contains(2) {
		t.Errorf("exact disagrees: same=%v later=%v", rootSame, rootLater)
	}
}

func TestGatherPullInformOpenerIsChild(t *testing.T) {
	// For PullInform edges the child opens the channel; if the child
	// failed there is no opening at all.
	tree := &Tree{
		Root: 0, N: 2, Steps: 3,
		InformedAt: []int32{0, 1},
		Edges: []GatherEdge{
			{Child: 1, Parent: 0, T: 1, Kind: PullInform},
		},
	}
	plan := gatherStructural(tree, []bool{false, true})
	if plan.Meter.Opened != 0 {
		t.Errorf("failed pull-inform child opened a channel: %+v", plan.Meter)
	}
}

func TestBuildTreeWithFailedRoot(t *testing.T) {
	// A failed root cannot seed anything; the tree stays empty and is
	// trivially "complete" over the zero non-failed... it is incomplete
	// because healthy nodes remain uninformed.
	g := testGraph(128, 80)
	nt := phone.NewNet(g, 81)
	nt.Failed[0] = true
	p := TunedMemoryParams(128)
	tree := buildTree(nt, 0, p, false, SyncTransport)
	if tree.Completed {
		t.Error("tree with failed root reported complete")
	}
	if len(tree.Edges) != 0 {
		t.Errorf("failed root produced %d edges", len(tree.Edges))
	}
}

func TestMemoryRobustnessFullFailureBound(t *testing.T) {
	// F close to n-1: nearly everything is lost, ratio stays <= ~1.
	n := 512
	g := testGraph(n, 82)
	p := TunedMemoryParams(n)
	p.Trees = 3
	res := MemoryRobustness(g, p, 83, n-2)
	if res.LostAdditional > n-(n-2) {
		t.Errorf("lost %d exceeds healthy population", res.LostAdditional)
	}
	if res.Ratio > 1.01 {
		t.Errorf("ratio %v impossible at F≈n", res.Ratio)
	}
}
