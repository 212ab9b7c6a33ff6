package core

import (
	"math"

	"gossip/internal/graph"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

// Seed-stream tags: distinct coordinates fed to xrand.SeedFor so that
// leader choice and failure sampling are independent of the per-node dial
// streams.
const (
	seedTagLeader = 0x6c656164 // "lead"
	seedTagFail   = 0x6661696c // "fail"
)

// EdgeKind distinguishes how a gather edge came to exist, which determines
// who opens the channel when the edge is replayed in Phase II.
type EdgeKind uint8

const (
	// PushContact: parent contacted child during the push stage and stored
	// the address; in Phase II the parent opens the channel (a poll) and
	// the child responds with everything it has gathered.
	PushContact EdgeKind = iota
	// PullInform: child dialed parent during the pull stage and was
	// informed; in Phase II the child opens the channel and pushes its
	// messages up (the first loop of Algorithm 2 Phase II).
	PullInform
)

// GatherEdge is one scheduled Phase II transfer: at gather step
// mirror(T) = Steps - T + 1 the child's accumulated messages flow to the
// parent.
type GatherEdge struct {
	Child, Parent int32
	T             int32 // Phase I step of the original contact (1-based)
	Kind          EdgeKind
}

// Tree is the communication infrastructure built by Phase I of
// Algorithm 2: a broadcast of the leader's token in which every node
// remembers whom it talked to and when, so Phase II can run the schedule
// backwards and drain every message to the root.
type Tree struct {
	Root       int32
	N          int
	Steps      int32   // Phase I steps executed (push + pull stages)
	InformedAt []int32 // step of first receipt (root: 0; never: -1)
	Edges      []GatherEdge
	Meter      phone.Meter
	Completed  bool // every non-failed node informed
}

// MirrorStep returns the Phase II gather step at which the contact made at
// Phase I step t is replayed.
func (tr *Tree) MirrorStep(t int32) int32 { return tr.Steps - t + 1 }

// buildTree runs Phase I of Algorithm 2 from root as per-node machines
// (treeSet) over the given transport. One driver run spans both stages,
// so driver steps coincide with the algorithm's step numbering. A gather
// tree (final false) pushes for p.PushSteps, pulls for exactly
// p.PullSteps and records the gather schedule. The final broadcast (final
// true) pushes for p.Phase3PushSteps and keeps pulling past p.PullSteps
// until every non-failed node is informed — the §5 convention for final
// phases — or p.Phase3MaxPullSteps is reached; it records nothing.
func buildTree(nt *phone.Net, root int32, p MemoryParams, final bool, tf TransportFactory) *Tree {
	pushSteps := p.PushSteps
	if final {
		pushSteps = p.Phase3PushSteps
	}
	n := nt.G.N()
	tree := &Tree{
		Root:       root,
		N:          n,
		InformedAt: make([]int32, n),
	}
	for i := range tree.InformedAt {
		tree.InformedAt[i] = -1
	}
	tree.InformedAt[root] = 0
	nt.InitMemory(p.MemSlots) // each phase starts with fresh link memories

	// The push stage executes whole long-steps only; a trailing partial
	// long-step is dropped (pushSteps/4 long-steps of 4 steps each).
	pushExec := pushSteps / 4 * 4
	set := newTreeSet(nt, tree, pushExec, !final)
	t := tf(set.ms)

	var m phone.Meter
	healthy := n - nt.FailCount()
	d := &Driver{
		T: t,
		// The stop predicate replicates the historical schedule exactly:
		// the push stage always runs in full; a gather tree's pull stage
		// runs exactly PullSteps steps; the final broadcast's stops at the
		// first step boundary where everyone is informed — but never before
		// one pull step has run (completion is only checked after a pull)
		// — and past PullSteps it keeps pulling until complete or the
		// total-step cap pushSteps+Phase3MaxPullSteps (the cap counts
		// scheduled push steps, not executed ones).
		Done: func() bool {
			sd := m.Steps
			if sd < pushExec {
				return false
			}
			pullDone := sd - pushExec
			complete := set.informed.Load() == int64(healthy)
			if !final {
				return pullDone >= p.PullSteps
			}
			if pullDone < p.PullSteps {
				return pullDone >= 1 && complete
			}
			return complete || sd >= pushSteps+p.Phase3MaxPullSteps
		},
		AfterStep: func(_ int32, tl phone.StepTally) {
			m.Open(tl.Opened)
			m.Push(tl.Pushes + tl.Responses)
			m.Step()
			if !final {
				set.drainEdges()
			}
		},
	}
	steps := d.Run()

	tree.Steps = int32(steps)
	tree.Meter = m
	tree.Completed = set.informed.Load() == int64(healthy)
	return tree
}

// GatherPlan reports which nodes' original messages reach the root when
// Phase II replays the tree's schedule in mirrored order, and the
// communication this costs. It is computed from the recorded schedule and
// the failure mask alone, in O(n + |edges|) and without materializing
// message sets, so it is the same under every transport; this is what
// makes the paper's 10⁵–10⁶-node robustness experiments laptop-sized.
// TestQuickGatherStructuralMatchesExactUnderFailures pins it against the
// exact set-based simulation.
type GatherPlan struct {
	Reached []bool // Reached[v]: v's original message arrives at the root
	Count   int    // number of reached nodes (root included)
	Meter   phone.Meter
}

// realizeGather replays the Phase II schedule forward (ascending gather
// step) under the failure mask and determines which polls actually carry
// data. It returns the realized transfers in ascending gather-step order
// together with the communication meter.
//
// Failed nodes neither open channels nor answer them; every poll between
// two healthy endpoints carries data.
func realizeGather(tree *Tree, failed []bool) ([]GatherEdge, phone.Meter) {
	var m phone.Meter
	realized := make([]GatherEdge, 0, len(tree.Edges))
	// Edges are recorded in ascending Phase I step T; ascending gather
	// step is descending T.
	for i := len(tree.Edges) - 1; i >= 0; i-- {
		e := tree.Edges[i]
		opener := e.Parent // PushContact: the parent polls
		if e.Kind == PullInform {
			opener = e.Child // the child pushes up
		}
		if failed[opener] {
			continue
		}
		m.Open(1)
		if failed[e.Child] || failed[e.Parent] {
			continue // no data crosses a channel with a failed endpoint
		}
		m.Push(1)
		realized = append(realized, e)
	}
	m.Steps = int(tree.Steps) // Phase II mirrors Phase I step for step
	return realized, m
}

// gatherStructural computes the Phase II outcome under the failure mask
// without materializing message sets: a pure replay (realizeGather)
// followed by the backward reachability pass. MemoryGossip runs it for
// every tree it built; the robustness experiments use it to re-analyze one
// built tree under many failure masks without re-running any
// communication.
//
// Correctness: content received at gather step s is forwardable at steps
// > s. Over the realized transfers, define g(v) as the largest gather step
// at which v sends to a node that can still deliver to the root
// (g(root) = +inf). Scanning realized transfers in decreasing gather step,
// g(parent) is final before any transfer with a smaller gather step is
// examined, so one backward pass suffices (the pass is order-insensitive
// within one gather step: g values only grow, and a transfer at step s
// consults g(parent) >= s+1, which transfers at step s never produce).
// v's own message (ready from step 0) reaches the root iff g(v) >= 1.
func gatherStructural(tree *Tree, failed []bool) *GatherPlan {
	realized, meter := realizeGather(tree, failed)
	n := tree.N

	const inf = math.MaxInt32
	gval := make([]int32, n)
	for i := range gval {
		gval[i] = -1
	}
	gval[tree.Root] = inf

	for i := len(realized) - 1; i >= 0; i-- { // descending gather step
		e := realized[i]
		s := tree.MirrorStep(e.T)
		gp := gval[e.Parent]
		if gp == inf || gp >= s+1 {
			if s > gval[e.Child] {
				gval[e.Child] = s
			}
		}
	}

	plan := &GatherPlan{Reached: make([]bool, n), Meter: meter}
	for v := 0; v < n; v++ {
		if failed[v] {
			continue
		}
		if int32(v) == tree.Root || gval[v] >= 1 {
			plan.Reached[v] = true
			plan.Count++
		}
	}
	return plan
}

// MemoryGossip runs Algorithm 2 on g with the given leader (pass -1 to
// pick a uniformly random leader from seed). Phase I builds params.Trees
// gather trees, Phase II drains all messages to the leader, and Phase III
// broadcasts the combined packet with the same infrastructure procedure,
// run until every node is informed.
func MemoryGossip(g *graph.Graph, params MemoryParams, seed uint64, leader int32) *Result {
	return MemoryGossipOver(g, params, seed, leader, SyncTransport)
}

// MemoryGossipOver is MemoryGossip with Phase I's tree builds and the
// Phase III broadcast executed as node state machines over tf. Phase II is
// transport-independent: its outcome depends only on the recorded
// schedule and the failure mask, so it is computed (gatherStructural)
// rather than stepped.
func MemoryGossipOver(g *graph.Graph, params MemoryParams, seed uint64, leader int32, tf TransportFactory) *Result {
	nt := phone.NewNet(g, seed)
	return memoryGossipOver(nt, params, seed, leader, tf)
}

func memoryGossipOver(nt *phone.Net, params MemoryParams, seed uint64, leader int32, tf TransportFactory) *Result {
	g := nt.G
	n := g.N()
	if leader < 0 {
		leader = int32(xrand.New(xrand.SeedFor(seed, seedTagLeader)).Intn(n))
	}
	res := &Result{Algorithm: "memory", N: n, Leader: leader}
	trees := make([]*Tree, params.Trees)

	var m1 phone.Meter
	for i := range trees {
		trees[i] = buildTree(nt, leader, params, false, tf)
		m1.Add(trees[i].Meter)
	}
	res.addPhase("infrastructure", m1)

	var m2 phone.Meter
	gathered := make([]bool, n)
	for _, t := range trees {
		plan := gatherStructural(t, nt.Failed)
		m2.Add(plan.Meter)
		for v, r := range plan.Reached {
			if r {
				gathered[v] = true
			}
		}
	}
	res.addPhase("gather", m2)

	// Phase III: broadcast the combined packet from the leader with the
	// same procedure, pull stage running to completion.
	bc := buildTree(nt, leader, params, true, tf)
	res.addPhase("broadcast", bc.Meter)

	complete := bc.Completed
	for v := 0; v < n; v++ {
		if !nt.Failed[v] && !gathered[v] {
			complete = false
			break
		}
	}
	res.Completed = complete
	return res
}

// MemoryGossipWithElection runs Algorithm 3 to find a leader and then
// Algorithm 2; the paper's headline O(n·loglog n)-transmission bound is for
// this combination.
func MemoryGossipWithElection(g *graph.Graph, params MemoryParams, lp LeaderParams, seed uint64) (*Result, *LeaderResult) {
	return MemoryGossipWithElectionOver(g, params, lp, seed, SyncTransport)
}

// MemoryGossipWithElectionOver is MemoryGossipWithElection over the given
// transport; the election and the gossip share one substrate (one seed, one
// set of RNG streams), exactly as the combined algorithm is analyzed.
func MemoryGossipWithElectionOver(g *graph.Graph, params MemoryParams, lp LeaderParams, seed uint64, tf TransportFactory) (*Result, *LeaderResult) {
	nt := phone.NewNet(g, seed)
	le := electLeaderOver(nt, lp, tf)
	res := memoryGossipOver(nt, params, seed, le.Leader, tf)
	res.Algorithm = "memory+election"
	// Prepend the election phase so the run totals include it.
	full := &Result{Algorithm: res.Algorithm, N: res.N, Leader: le.Leader}
	full.addPhase("election", le.Meter)
	for _, ph := range res.Phases {
		full.addPhase(ph.Name, ph.Meter)
	}
	full.Completed = res.Completed && le.Unique
	return full, le
}

// RobustnessResult is one §5 failure experiment: F random non-leader nodes
// crash after Phase I; how many healthy nodes' messages reach no tree root?
type RobustnessResult struct {
	N, Failed      int
	Trees          int
	LostAdditional int     // healthy nodes unreachable in every tree
	Ratio          float64 // LostAdditional / Failed
	PerTreeLost    []int   // per-tree loss before taking the union
	TreesComplete  bool    // all trees informed everyone before failures
}

// MemoryRobustness reproduces the Figure 2/3/5 experiment: build
// params.Trees independent trees with a healthy network, mark F uniformly
// random non-leader nodes failed, replay Phase II on each tree under the
// failure mask, and count healthy messages that reach no root.
func MemoryRobustness(g *graph.Graph, params MemoryParams, seed uint64, failures int) RobustnessResult {
	n := g.N()
	nt := phone.NewNet(g, seed)
	leader := int32(xrand.New(xrand.SeedFor(seed, seedTagLeader)).Intn(n))

	trees := make([]*Tree, params.Trees)
	complete := true
	for i := range trees {
		trees[i] = buildTree(nt, leader, params, false, SyncTransport)
		complete = complete && trees[i].Completed
	}

	// Fail F nodes uniformly at random, excluding the leader (the §5 setting).
	rng := xrand.New(xrand.SeedFor(seed, seedTagFail))
	failed := make([]bool, n)
	for _, idx := range rng.SampleK(n-1, failures) {
		v := idx
		if v >= leader {
			v++ // skip the leader in the sample space
		}
		failed[v] = true
	}

	res := RobustnessResult{
		N: n, Failed: failures, Trees: params.Trees,
		PerTreeLost: make([]int, params.Trees), TreesComplete: complete,
	}
	reached := make([]bool, n)
	for i, t := range trees {
		plan := gatherStructural(t, failed)
		healthy := n - failures
		res.PerTreeLost[i] = healthy - plan.Count
		for v, r := range plan.Reached {
			if r {
				reached[v] = true
			}
		}
	}
	for v := 0; v < n; v++ {
		if !failed[v] && !reached[v] {
			res.LostAdditional++
		}
	}
	if failures > 0 {
		res.Ratio = float64(res.LostAdditional) / float64(failures)
	}
	return res
}
