package core

import (
	"testing"
	"testing/quick"

	"gossip/internal/bitset"
	"gossip/internal/msg"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

// gatherExact replays the realized Phase II transfers with explicit
// message sets (snapshot semantics per gather step) and returns the root's
// gathered set. It is quadratic in memory: ground truth for the tests.
func gatherExact(tree *Tree, failed []bool) (*bitset.Set, phone.Meter) {
	n := tree.N
	realized, meter := realizeGather(tree, failed)
	tr := msg.NewFull(n)

	for lo := 0; lo < len(realized); {
		hi := lo + 1
		for hi < len(realized) && realized[hi].T == realized[lo].T {
			hi++
		}
		tr.BeginRound()
		for _, e := range realized[lo:hi] {
			tr.Transfer(e.Child, e.Parent)
		}
		tr.EndRound()
		lo = hi
	}
	return tr.Row(tree.Root), meter
}

func buildTestTree(t *testing.T, n int, seed uint64) (*phone.Net, *Tree) {
	t.Helper()
	g := testGraph(n, seed)
	nt := phone.NewNet(g, seed+1)
	p := TunedMemoryParams(n)
	tree := buildTree(nt, 0, p, false, SyncTransport)
	return nt, tree
}

func TestBuildTreeInformsEveryone(t *testing.T) {
	for _, n := range []int{256, 1024} {
		_, tree := buildTestTree(t, n, uint64(n))
		if !tree.Completed {
			uninformed := 0
			for _, at := range tree.InformedAt {
				if at < 0 {
					uninformed++
				}
			}
			t.Errorf("n=%d: tree left %d nodes uninformed", n, uninformed)
		}
	}
}

func TestBuildTreeEdgesWellFormed(t *testing.T) {
	_, tree := buildTestTree(t, 512, 3)
	prev := int32(0)
	for _, e := range tree.Edges {
		if e.T < prev {
			t.Fatal("edges not recorded in ascending step order")
		}
		prev = e.T
		if e.T < 1 || e.T > tree.Steps {
			t.Fatalf("edge step %d out of range [1, %d]", e.T, tree.Steps)
		}
		if e.Child == e.Parent {
			t.Fatal("self-edge recorded")
		}
		if e.Kind == PushContact {
			// The parent was informed strictly before contacting.
			if at := tree.InformedAt[e.Parent]; at < 0 || at >= e.T {
				t.Fatalf("push contact by node informed at %d happened at %d", at, e.T)
			}
		}
		if e.Kind == PullInform {
			if tree.InformedAt[e.Child] != e.T {
				t.Fatal("pull-inform edge time does not match first receipt")
			}
		}
	}
}

func TestBuildTreePushBudget(t *testing.T) {
	// Every node contacts at most 4 neighbors during the push stage
	// (each node is active for exactly one long-step).
	_, tree := buildTestTree(t, 512, 4)
	pushes := map[int32]int{}
	for _, e := range tree.Edges {
		if e.Kind == PushContact {
			pushes[e.Parent]++
		}
	}
	for v, c := range pushes {
		if c > 4 {
			t.Errorf("node %d made %d push contacts", v, c)
		}
	}
}

func TestGatherNoFailuresReachesAllInformed(t *testing.T) {
	nt, tree := buildTestTree(t, 512, 5)
	plan := gatherStructural(tree, nt.Failed)
	for v, at := range tree.InformedAt {
		if (at >= 0) != plan.Reached[v] {
			t.Fatalf("node %d: informed=%v reached=%v", v, at >= 0, plan.Reached[v])
		}
	}
	if plan.Count != 512 {
		t.Errorf("reached %d/512", plan.Count)
	}
}

func TestGatherExactMatchesStructuralNoFailures(t *testing.T) {
	nt, tree := buildTestTree(t, 256, 6)
	rootSet, meter := gatherExact(tree, nt.Failed)
	plan := gatherStructural(tree, nt.Failed)
	if rootSet.Count() != plan.Count {
		t.Errorf("exact gathered %d, structural %d", rootSet.Count(), plan.Count)
	}
	for v := 0; v < 256; v++ {
		if rootSet.Contains(v) != plan.Reached[v] {
			t.Fatalf("node %d: exact=%v structural=%v", v, rootSet.Contains(v), plan.Reached[v])
		}
	}
	if meter.Transmissions != plan.Meter.Transmissions || meter.Opened != plan.Meter.Opened {
		t.Errorf("meters disagree: exact=%+v structural=%+v", meter, plan.Meter)
	}
}

func TestQuickGatherStructuralMatchesExactUnderFailures(t *testing.T) {
	// The load-bearing equivalence: for random graphs and random failure
	// sets, the O(n) structural gather must agree with the exact set-based
	// replay on BOTH the reached set and the meter.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 64 + rng.Intn(192)
		g := testGraph(n, seed)
		nt := phone.NewNet(g, seed+13)
		p := TunedMemoryParams(n)
		tree := buildTree(nt, int32(rng.Intn(n)), p, false, SyncTransport)

		failed := make([]bool, n)
		for _, v := range rng.SampleK(n, rng.Intn(n/4+1)) {
			if v != tree.Root {
				failed[v] = true
			}
		}
		rootSet, meter := gatherExact(tree, failed)
		plan := gatherStructural(tree, failed)
		for v := 0; v < n; v++ {
			if rootSet.Contains(v) != plan.Reached[v] {
				return false
			}
		}
		return meter.Transmissions == plan.Meter.Transmissions &&
			meter.Opened == plan.Meter.Opened
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMemoryGossipCompletes(t *testing.T) {
	for _, n := range []int{256, 1024} {
		g := testGraph(n, uint64(n)+7)
		res := MemoryGossip(g, TunedMemoryParams(n), 1, -1)
		if !res.Completed {
			t.Errorf("n=%d: memory gossiping did not complete: %v", n, res)
		}
		if res.Leader < 0 || int(res.Leader) >= n {
			t.Errorf("n=%d: bad leader %d", n, res.Leader)
		}
		if len(res.Phases) != 3 {
			t.Errorf("n=%d: %d phases", n, len(res.Phases))
		}
	}
}

func TestMemoryGossipConstantTransmissionsPerNode(t *testing.T) {
	// The flat series of Figure 1: messages per node bounded by a small
	// constant independent of n (the paper reports ~5 under its tuned
	// constants; we assert a conservative envelope and, crucially,
	// non-growth across a 16x size range).
	small := testGraph(512, 8)
	large := testGraph(8192, 9)
	rs := MemoryGossip(small, TunedMemoryParams(512), 2, -1)
	rl := MemoryGossip(large, TunedMemoryParams(8192), 3, -1)
	if !rs.Completed || !rl.Completed {
		t.Fatal("runs did not complete")
	}
	if rl.TransmissionsPerNode() > 12 {
		t.Errorf("memory model msgs/node = %v, not constant-like", rl.TransmissionsPerNode())
	}
	if rl.TransmissionsPerNode() > rs.TransmissionsPerNode()+2 {
		t.Errorf("memory model msgs/node grew with n: %v -> %v",
			rs.TransmissionsPerNode(), rl.TransmissionsPerNode())
	}
}

func TestMemoryGossipFixedLeader(t *testing.T) {
	g := testGraph(256, 10)
	res := MemoryGossip(g, TunedMemoryParams(256), 4, 17)
	if res.Leader != 17 {
		t.Errorf("leader = %d, want 17", res.Leader)
	}
	if !res.Completed {
		t.Error("did not complete")
	}
}

func TestMemoryGossipDeterministic(t *testing.T) {
	g := testGraph(512, 11)
	p := TunedMemoryParams(512)
	a := MemoryGossip(g, p, 42, -1)
	b := MemoryGossip(g, p, 42, -1)
	if a.Steps != b.Steps || a.Meter != b.Meter || a.Leader != b.Leader {
		t.Error("same seed produced different runs")
	}
}

func TestMemoryGossipWithElection(t *testing.T) {
	n := 1024
	g := testGraph(n, 12)
	res, le := MemoryGossipWithElection(g, TunedMemoryParams(n), DefaultLeaderParams(n), 5)
	if !le.Unique {
		t.Fatalf("election not unique: %+v", le)
	}
	if res.Leader != le.Leader {
		t.Error("gossip used a different leader than elected")
	}
	if !res.Completed {
		t.Error("did not complete")
	}
	if res.Phases[0].Name != "election" {
		t.Error("election phase missing from accounting")
	}
}

func TestMemoryRobustnessZeroFailuresZeroLoss(t *testing.T) {
	g := testGraph(512, 13)
	p := TunedMemoryParams(512)
	p.Trees = 3
	res := MemoryRobustness(g, p, 6, 0)
	if res.LostAdditional != 0 {
		t.Errorf("lost %d messages with zero failures", res.LostAdditional)
	}
	if !res.TreesComplete {
		t.Error("trees incomplete on healthy network")
	}
	if res.Ratio != 0 {
		t.Error("ratio should be 0")
	}
}

func TestMemoryRobustnessBounds(t *testing.T) {
	n := 1024
	g := testGraph(n, 14)
	p := TunedMemoryParams(n)
	p.Trees = 3
	res := MemoryRobustness(g, p, 7, 50)
	if res.Failed != 50 || res.Trees != 3 {
		t.Fatalf("metadata wrong: %+v", res)
	}
	if res.LostAdditional < 0 || res.LostAdditional > n-50 {
		t.Errorf("lost out of range: %d", res.LostAdditional)
	}
	// Union over trees can only help: lost <= min per-tree lost.
	for _, perTree := range res.PerTreeLost {
		if res.LostAdditional > perTree {
			t.Errorf("union lost %d exceeds single-tree lost %d", res.LostAdditional, perTree)
		}
	}
	// Figure 2's empirical envelope is a ratio of ~2.5; allow generous
	// slack while still catching catastrophic regressions.
	if res.Ratio > 20 {
		t.Errorf("loss ratio %v absurdly high", res.Ratio)
	}
}

func TestMemoryRobustnessMoreTreesHelp(t *testing.T) {
	n := 1024
	g := testGraph(n, 15)
	f := 100
	lost := func(trees int) int {
		p := TunedMemoryParams(n)
		p.Trees = trees
		// Same seed: same tree 1, same failure sample.
		return MemoryRobustness(g, p, 8, f).LostAdditional
	}
	one, three := lost(1), lost(3)
	if three > one {
		t.Errorf("3 trees lost more (%d) than 1 tree (%d)", three, one)
	}
}

func TestMirrorStep(t *testing.T) {
	tree := &Tree{Steps: 10}
	if tree.MirrorStep(1) != 10 || tree.MirrorStep(10) != 1 {
		t.Error("mirror arithmetic wrong")
	}
}
