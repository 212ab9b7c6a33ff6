package gossip

import (
	"fmt"

	"gossip/internal/core"
	"gossip/internal/exp"
	"gossip/internal/graph"
	"gossip/internal/phone"
	"gossip/internal/stats"
	"gossip/internal/xrand"
)

// Re-exported result and parameter types. The implementations live in
// internal packages; these aliases are the supported public surface.
type (
	// Graph is an undirected (multi)graph in CSR form; build one with the
	// New* constructors below.
	Graph = graph.Graph
	// Result summarizes one gossiping run: steps, completion, and the
	// communication meters (see Result.TransmissionsPerNode).
	Result = core.Result
	// FastGossipParams schedules Algorithm 1 (fast-gossiping).
	FastGossipParams = core.FastGossipParams
	// MemoryParams schedules Algorithm 2 (memory model).
	MemoryParams = core.MemoryParams
	// LeaderParams schedules Algorithm 3 (leader election).
	LeaderParams = core.LeaderParams
	// LeaderResult reports an election.
	LeaderResult = core.LeaderResult
	// RobustnessResult reports one crash-failure experiment.
	RobustnessResult = core.RobustnessResult
	// BroadcastMode selects push / pull / push–pull for RunBroadcast.
	BroadcastMode = core.BroadcastMode
	// BroadcastResult reports a single-message dissemination run.
	BroadcastResult = core.BroadcastResult
	// DegreeSummary describes a degree sequence (mean, spread, quantiles).
	DegreeSummary = stats.Summary
)

// Broadcast transmission rules for RunBroadcast.
const (
	PushOnly    = core.PushOnly
	PullOnly    = core.PullOnly
	PushAndPull = core.PushAndPull
)

// NewErdosRenyi samples G(n, p): each pair of nodes is connected
// independently with probability p. Deterministic per seed.
func NewErdosRenyi(n int, p float64, seed uint64) *Graph {
	return graph.ErdosRenyi(n, p, xrand.New(seed))
}

// NewPaperGraph samples the network of the paper's empirical section:
// G(n, p) with p = log²n / n.
func NewPaperGraph(n int, seed uint64) *Graph {
	return graph.ErdosRenyi(n, graph.PLogSquared(n), xrand.New(seed))
}

// NewConfigurationModel samples a d-regular multigraph from the pairing
// model, keeping self-loops and multi-edges as the paper's analysis does.
// n·d must be even.
func NewConfigurationModel(n, d int, seed uint64) *Graph {
	return graph.ConfigurationModel(n, d, xrand.New(seed))
}

// NewPowerLaw samples a Chung–Lu graph with power-law expected degrees
// (exponent beta > 1, minimum expected degree wmin).
func NewPowerLaw(n int, beta, wmin float64, seed uint64) *Graph {
	return graph.ChungLu(graph.PowerLawWeights(n, beta, wmin), xrand.New(seed))
}

// IsConnected reports whether g is connected.
func IsConnected(g *Graph) bool { return graph.IsConnected(g) }

// Degrees summarizes g's degree sequence.
func Degrees(g *Graph) DegreeSummary { return graph.DegreeStats(g) }

// TunedFastGossipParams returns the Algorithm 1 constants of paper
// Table 1 (the values the paper's own simulations used).
func TunedFastGossipParams(n int) FastGossipParams { return core.TunedFastGossipParams(n) }

// TheoryFastGossipParams returns the Algorithm 1 pseudocode schedule with
// minimal admissible constants.
func TheoryFastGossipParams(n int) FastGossipParams { return core.TheoryFastGossipParams(n) }

// TunedMemoryParams returns the Algorithm 2 constants of paper Table 1.
func TunedMemoryParams(n int) MemoryParams { return core.TunedMemoryParams(n) }

// DefaultLeaderParams returns a practical Algorithm 3 schedule.
func DefaultLeaderParams(n int) LeaderParams { return core.DefaultLeaderParams(n) }

// RunPushPull runs the push–pull baseline until every node knows every
// message (maxSteps 0 = generous default cap).
func RunPushPull(g *Graph, seed uint64, maxSteps int) *Result {
	return core.PushPull(g, seed, maxSteps)
}

// RunFastGossip runs Algorithm 1 with the given schedule.
func RunFastGossip(g *Graph, p FastGossipParams, seed uint64) *Result {
	return core.FastGossip(g, p, seed)
}

// RunMemoryGossip runs Algorithm 2. leader < 0 picks a uniformly random
// leader from the seed.
func RunMemoryGossip(g *Graph, p MemoryParams, seed uint64, leader int32) *Result {
	return core.MemoryGossip(g, p, seed, leader)
}

// RunMemoryGossipWithElection runs Algorithm 3 followed by Algorithm 2 and
// accounts both (the paper's O(n·loglog n)-transmission pipeline).
func RunMemoryGossipWithElection(g *Graph, p MemoryParams, lp LeaderParams, seed uint64) (*Result, *LeaderResult) {
	return core.MemoryGossipWithElection(g, p, lp, seed)
}

// RunBroadcast disseminates a single message from src under the given
// transmission rule (maxSteps 0 = generous default cap).
func RunBroadcast(g *Graph, src int32, mode BroadcastMode, seed uint64, maxSteps int) *BroadcastResult {
	return core.Broadcast(g, src, mode, seed, maxSteps)
}

// RunMemoryRobustness reproduces the §5 failure experiment: build
// p.Trees independent gather trees, crash `failures` random non-leader
// nodes before Phase II, and count additionally lost healthy messages.
func RunMemoryRobustness(g *Graph, p MemoryParams, seed uint64, failures int) RobustnessResult {
	return core.MemoryRobustness(g, p, seed, failures)
}

// The transport seam (internal/phone, internal/core): algorithms are
// per-node state machines (NodeMachine) stepped by a MachineDriver over a
// GossipTransport. The Run* functions above use the synchronous-round
// transport; NewSeededTransport runs the same machines on a seeded
// schedule of it, and cmd/gossipd runs them over loopback TCP. See doc.go,
// "The transport seam and node state machines".
type (
	// NodeMachine is one node's protocol logic: dial, push and fix the
	// step's answer to every caller on OnStep, absorb deliveries in
	// OnReceive, transition in OnStepEnd.
	NodeMachine = phone.Machine
	// GossipTransport executes one logical step of a machine set.
	GossipTransport = phone.Transport
	// StepTally counts one step's channel openings, pushes and responses.
	StepTally = phone.StepTally
	// MachineDriver steps a transport until a completion predicate or a
	// step cap.
	MachineDriver = core.Driver
	// BroadcastMachines is a single-rumor broadcast as a machine set:
	// build with NewBroadcastMachines, run on any transport, then read
	// per-node informed steps and delivered payloads.
	BroadcastMachines = core.BroadcastSet
)

// NewSeededTransport builds the synchronous-round transport over ms on
// a seeded schedule (see doc.go); the same seed replays the same run.
func NewSeededTransport(ms []NodeMachine, seed uint64) GossipTransport {
	return phone.NewSeeded(ms, seed)
}

// NewBroadcastMachines builds the machine set disseminating payload from
// src on g under the given transmission rule. A nil payload broadcasts a
// plain marker.
func NewBroadcastMachines(g *Graph, src int32, mode BroadcastMode, payload any, seed uint64) *BroadcastMachines {
	return core.NewBroadcastSet(phone.NewNet(g, seed), src, mode, payload)
}

// NewComplete returns the complete graph K_n (the baseline topology of the
// paper's complete-graph comparisons). It is implicit: O(n) memory at any
// n, and Neighbors lists v's neighbours in cyclic order from v+1.
func NewComplete(n int) *Graph { return graph.Complete(n) }

// ExperimentConfig scales and seeds a paper experiment (see Experiment).
type ExperimentConfig = exp.Config

// ExperimentReport is a rendered experiment: a table, plot series and
// notes. Render it to any io.Writer or export CSV with WriteCSV.
type ExperimentReport = exp.Report

// ExperimentIDs lists the available experiment IDs in stable order:
// the paper's tables and figures first, then the ablations.
func ExperimentIDs() []string {
	ids := make([]string, len(exp.Experiments))
	for i, e := range exp.Experiments {
		ids[i] = e.ID
	}
	return ids
}

// Experiment runs the identified paper experiment (see ExperimentIDs) at
// the configured scale and returns its report.
func Experiment(id string, cfg ExperimentConfig) (*ExperimentReport, error) {
	for _, e := range exp.Experiments {
		if e.ID == id {
			return e.Run(cfg), nil
		}
	}
	return nil, fmt.Errorf("gossip: unknown experiment %q (known: %v)", id, ExperimentIDs())
}
