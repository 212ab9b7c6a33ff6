package core

// Golden pins for the machine-based memory model and leader election.
//
// The constants below are the exact outputs of the pre-seam substrate
// loops at the reference seeds, captured immediately before those loops
// were replaced by phone.Machine implementations. The machines must
// reproduce them bit-for-bit under SyncTransport — any drift here is a
// semantic change to the algorithms, not a refactor.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

// edgeHash fingerprints a gather-edge multiset (order-insensitive: edges
// are sorted before hashing, since within-step recording order is
// explicitly unspecified).
func edgeHash(edges []GatherEdge) uint64 {
	sorted := append([]GatherEdge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Child != b.Child {
			return a.Child < b.Child
		}
		if a.Parent != b.Parent {
			return a.Parent < b.Parent
		}
		return a.Kind < b.Kind
	})
	h := fnv.New64a()
	for _, e := range sorted {
		fmt.Fprintf(h, "%d/%d/%d/%d;", e.T, e.Child, e.Parent, e.Kind)
	}
	return h.Sum64()
}

func int32Hash(xs []int32) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		fmt.Fprintf(h, "%d;", x)
	}
	return h.Sum64()
}

func wantMeter(t *testing.T, name string, got phone.Meter, opened, tx, pk int64, steps int) {
	t.Helper()
	want := phone.Meter{Opened: opened, Transmissions: tx, Packets: pk, Steps: steps}
	if got != want {
		t.Errorf("%s meter: got %+v want %+v", name, got, want)
	}
}

func phaseMeter(t *testing.T, res *Result, name string) phone.Meter {
	t.Helper()
	for _, ph := range res.Phases {
		if ph.Name == name {
			return ph.Meter
		}
	}
	t.Fatalf("phase %q missing (have %d phases)", name, len(res.Phases))
	return phone.Meter{}
}

// erasedPairing is the graph G9 is pinned on: 40 configuration-model
// pairings drawn and discarded, then the 41st with its loops dropped and
// its parallel edges collapsed, {u, v} with u < v kept at u's first entry
// in v's list, v ascending. That is what the rejection sampler once used
// for regular graphs returned at this degree, where none of its 40 tries
// could be simple.
func erasedPairing(n, d int, rng *xrand.RNG) *graph.Graph {
	for range 40 {
		graph.ConfigurationModel(n, d, rng)
	}
	g := graph.ConfigurationModel(n, d, rng)
	var edges []graph.Edge
	last := make([]int32, n) // last[u] = v once {u, v} is kept; u < v, so never 0
	for v := int32(0); int(v) < n; v++ {
		for _, u := range g.Neighbors(v) {
			if u < v && last[u] != v {
				last[u] = v
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

func TestMemoryGossipGolden(t *testing.T) {
	g256 := confGraph(t, 256)

	r1 := MemoryGossip(g256, TunedMemoryParams(256), confSeed, -1)
	if !r1.Completed || r1.Steps != 58 {
		t.Errorf("G1: completed=%v steps=%d, want true/58", r1.Completed, r1.Steps)
	}
	wantMeter(t, "G1 infrastructure", phaseMeter(t, r1, "infrastructure"), 409, 387, 387, 22)
	wantMeter(t, "G1 gather", phaseMeter(t, r1, "gather"), 387, 387, 387, 22)
	wantMeter(t, "G1 broadcast", phaseMeter(t, r1, "broadcast"), 816, 256, 256, 14)

	p2 := TunedMemoryParams(256)
	p2.Trees = 3
	r2 := MemoryGossip(g256, p2, 99, 5)
	if !r2.Completed || r2.Steps != 147 {
		t.Errorf("G2: completed=%v steps=%d, want true/147", r2.Completed, r2.Steps)
	}
	inf2 := phaseMeter(t, r2, "infrastructure")
	wantMeter(t, "G2 infrastructure", inf2, 1202, 1104, 1104, 66)
	// Without failures Phase II re-opens every informing channel of the
	// three trees and each one carries data.
	wantMeter(t, "G2 gather", phaseMeter(t, r2, "gather"), inf2.Transmissions, inf2.Transmissions, inf2.Transmissions, inf2.Steps)
	wantMeter(t, "G2 broadcast", phaseMeter(t, r2, "broadcast"), 894, 255, 255, 15)

	// Dense simple graph (different informing dynamics than the sparse
	// configuration-model graph above).
	gd := erasedPairing(512, 128, xrand.New(94))
	r9 := MemoryGossip(gd, TunedMemoryParams(512), 9, -1)
	if !r9.Completed || r9.Steps != 70 {
		t.Errorf("G9: completed=%v steps=%d, want true/70", r9.Completed, r9.Steps)
	}
	wantMeter(t, "G9 infrastructure", phaseMeter(t, r9, "infrastructure"), 997, 979, 979, 26)
	wantMeter(t, "G9 gather", phaseMeter(t, r9, "gather"), 979, 979, 979, 26)
	wantMeter(t, "G9 broadcast", phaseMeter(t, r9, "broadcast"), 1275, 520, 520, 18)
}

func TestElectLeaderGolden(t *testing.T) {
	g256 := confGraph(t, 256)
	want := []struct {
		seed       uint64
		leader     int32
		candidates int
		opened     int64
	}{
		{1, 0, 62, 7659},
		{2, 5, 61, 7607},
		{7, 7, 71, 7705},
	}
	for _, w := range want {
		le := ElectLeaderOver(g256, DefaultLeaderParams(256), w.seed, SyncTransport)
		if le.Leader != w.leader || le.Candidates != w.candidates || !le.Unique ||
			le.AwareCount != 256 || le.Steps != 32 {
			t.Errorf("seed %d: got %+v", w.seed, le)
		}
		wantMeter(t, fmt.Sprintf("seed %d", w.seed), le.Meter, w.opened, w.opened, w.opened, 32)
	}

	// Crash failures: failed nodes neither dial nor answer, and the meter
	// separates openings from transmissions.
	gf := testGraph(1024, 47)
	nt := phone.NewNet(gf, 3)
	for _, v := range xrand.New(99).SampleK(1024, 40) {
		nt.Failed[v] = true
	}
	lef := electLeaderOver(nt, DefaultLeaderParams(1024), SyncTransport)
	if lef.Leader != 4 || lef.Candidates != 86 || !lef.Unique || lef.AwareCount != 984 || lef.Steps != 38 {
		t.Errorf("failures: got %+v", lef)
	}
	wantMeter(t, "failures", lef.Meter, 33728, 33176, 33176, 38)
}

func TestMemoryBroadcastGolden(t *testing.T) {
	g256 := confGraph(t, 256)
	mb := MemoryBroadcast(g256, TunedMemoryParams(256), 3, confSeed)
	if mb.Steps != 15 || !mb.Completed || mb.Transmissions != 257 || mb.Opened != 958 {
		t.Errorf("got steps=%d completed=%v tx=%d opened=%d",
			mb.Steps, mb.Completed, mb.Transmissions, mb.Opened)
	}
	if h := int32Hash(mb.InformedAt); h != 2153715955519293775 {
		t.Errorf("InformedAt hash: got %d", h)
	}
}

func TestMemoryGossipWithElectionGolden(t *testing.T) {
	g256 := confGraph(t, 256)
	we, wle := MemoryGossipWithElection(g256, TunedMemoryParams(256), DefaultLeaderParams(256), confSeed)
	if !we.Completed {
		t.Error("run not completed")
	}
	wantMeter(t, "election", phaseMeter(t, we, "election"), 7662, 7662, 7662, 32)
	wantMeter(t, "infrastructure", phaseMeter(t, we, "infrastructure"), 415, 374, 374, 22)
	wantMeter(t, "gather", phaseMeter(t, we, "gather"), 374, 374, 374, 22)
	wantMeter(t, "broadcast", phaseMeter(t, we, "broadcast"), 900, 256, 256, 15)
	if wle.Leader != 0 || wle.Candidates != 65 || !wle.Unique || wle.AwareCount != 256 {
		t.Errorf("election result: got %+v", wle)
	}
}

func TestMemoryRobustnessGolden(t *testing.T) {
	pr := TunedMemoryParams(1024)
	pr.Trees = 3
	rb := MemoryRobustness(testGraph(1024, 14), pr, 7, 50)
	if rb.LostAdditional != 2 || rb.Ratio != 0.04 || !rb.TreesComplete {
		t.Errorf("got %+v", rb)
	}
	wantLost := []int{177, 95, 56}
	for i, w := range wantLost {
		if rb.PerTreeLost[i] != w {
			t.Errorf("PerTreeLost[%d]: got %d want %d", i, rb.PerTreeLost[i], w)
		}
	}
}

func TestBuildTreeGolden(t *testing.T) {
	gt := testGraph(512, 3)
	nt := phone.NewNet(gt, 4)
	p := TunedMemoryParams(512)
	tree := buildTree(nt, 0, p, false, SyncTransport)
	if tree.Steps != 26 || !tree.Completed || len(tree.Edges) != 934 {
		t.Errorf("steps=%d completed=%v edges=%d", tree.Steps, tree.Completed, len(tree.Edges))
	}
	wantMeter(t, "tree", tree.Meter, 966, 934, 934, 26)
	if h := edgeHash(tree.Edges); h != 15538009105440349172 {
		t.Errorf("edge hash: got %d", h)
	}
	if h := int32Hash(tree.InformedAt); h != 16615944668765244276 {
		t.Errorf("InformedAt hash: got %d", h)
	}
}
