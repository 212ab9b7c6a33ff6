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

// NewRandomRegular samples a simple graph with degrees d (d ≤ 5 or so) or
// at most d (an erased pairing; see graph.RandomRegular). n·d must be even.
func NewRandomRegular(n, d int, seed uint64) *Graph {
	return graph.RandomRegular(n, d, xrand.New(seed))
}

// NewConfigurationModel samples a d-regular multigraph from the pairing
// model, keeping self-loops and multi-edges as the paper's analysis does.
func NewConfigurationModel(n, d int, seed uint64) *Graph {
	g, _ := graph.ConfigurationModel(n, d, xrand.New(seed))
	return g
}

// NewPowerLaw samples a Chung–Lu graph with power-law expected degrees
// (exponent beta > 1, minimum expected degree wmin).
func NewPowerLaw(n int, beta, wmin float64, seed uint64) *Graph {
	return graph.ChungLu(graph.PowerLawWeights(n, beta, wmin), xrand.New(seed))
}

// PaperEdgeProbability returns p = log²n/n (§5 of the paper).
func PaperEdgeProbability(n int) float64 { return graph.PLogSquared(n) }

// EdgeProbabilityLogPow returns p = logᵉn/n — the density knob of the
// paper's analysis (which requires expected degree Ω(log^{2+ε} n)).
func EdgeProbabilityLogPow(n int, e float64) float64 { return graph.PLogPow(n, e) }

// Log2n returns the paper's logarithm: log₂n, clamped below at 1.
func Log2n(n int) float64 { return core.Logn(n) }

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

// RunElectLeader runs Algorithm 3.
func RunElectLeader(g *Graph, p LeaderParams, seed uint64) *LeaderResult {
	return core.ElectLeader(g, p, seed)
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

// MedianCounterParams configures the Karp et al. median-counter broadcast.
type MedianCounterParams = core.MedianCounterParams

// MedianCounterResult reports a median-counter run.
type MedianCounterResult = core.MedianCounterResult

// DefaultMedianCounterParams returns CtrMax = ⌈loglog n⌉+2 and a generous
// step cap.
func DefaultMedianCounterParams(n int) MedianCounterParams {
	return core.DefaultMedianCounterParams(n)
}

// RunMedianCounterBroadcast runs the self-terminating push&pull broadcast
// of Karp, Schindelhauer, Shenker and Vöcking (FOCS'00) — the
// O(n·loglog n)-transmission complete-graph result the paper builds on.
func RunMedianCounterBroadcast(g *Graph, src int32, p MedianCounterParams, seed uint64) *MedianCounterResult {
	return core.MedianCounterBroadcast(g, src, p, seed)
}

// RunMemoryBroadcast runs the Elsässer–Sauerwald memory broadcasting
// ([20]) — Algorithm 2's Phase I as a standalone O(n)-transmission,
// O(log n)-round broadcast.
func RunMemoryBroadcast(g *Graph, p MemoryParams, root int32, seed uint64) *BroadcastResult {
	return core.MemoryBroadcast(g, p, root, seed)
}

// SampledResult reports a sampled-tracking estimator run.
type SampledResult = core.SampledResult

// RunPushPullSampled runs the push–pull baseline while tracking k sampled
// messages exactly (Θ(n·k) bits instead of Θ(n²)), for sizes beyond the
// exact tracker's memory wall. Under a given seed the channel dynamics
// equal RunPushPull's; only the completion observation is sampled.
func RunPushPullSampled(g *Graph, seed uint64, k, maxSteps int) *SampledResult {
	return core.PushPullSampled(g, seed, k, maxSteps)
}

// The transport seam (internal/phone, internal/core): algorithms are
// per-node state machines (NodeMachine) stepped by a MachineDriver over a
// GossipTransport. The Run* functions above use the synchronous-round
// transport; NewAsyncTransport runs the same machines one goroutine per
// node with channel delivery, and cmd/gossipd runs them over loopback
// TCP. See doc.go, "The transport seam and node state machines".
type (
	// NodeMachine is one node's protocol logic: dial and push on OnStep,
	// answer pulls in OnOpen (read-only), absorb deliveries in OnReceive,
	// transition in OnStepEnd.
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

// NewAsyncTransport builds the goroutine-per-node transport over ms
// (Close it when done — it owns goroutines).
func NewAsyncTransport(ms []NodeMachine) GossipTransport { return phone.NewAsync(ms) }

// NewBroadcastMachines builds the machine set disseminating payload from
// src on g under the given transmission rule. A nil payload broadcasts a
// plain marker.
func NewBroadcastMachines(g *Graph, src int32, mode BroadcastMode, payload any, seed uint64) *BroadcastMachines {
	return core.NewBroadcastSet(phone.NewNet(g, seed), src, mode, payload)
}

// NewComplete returns the complete graph K_n (the baseline topology of the
// paper's complete-graph comparisons).
func NewComplete(n int) *Graph { return graph.Complete(n) }

// NewHypercube returns the d-dimensional hypercube (2^d nodes).
func NewHypercube(d int) *Graph { return graph.Hypercube(d) }

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
