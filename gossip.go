package gossip

import (
	"context"
	"fmt"
	"io"
	"net"

	"gossip/internal/core"
	"gossip/internal/corpus"
	"gossip/internal/corpusd"
	"gossip/internal/dispatch"
	"gossip/internal/exp"
	"gossip/internal/gossipd"
	"gossip/internal/graph"
	"gossip/internal/phone"
	"gossip/internal/runner"
	"gossip/internal/stats"
	"gossip/internal/sweep"
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

// NewRandomRegular samples a simple d-regular graph (configuration model
// with rejection/repair). n·d must be even.
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
// per-node state machines (NodeMachine) driven by a pluggable transport.
// NewSyncTransport is the simulator's canonical synchronous-round
// executor — bit-identical results at any parallelism; NewAsyncTransport
// runs one goroutine per node with channel delivery; ServeGossipd runs
// the same machines over loopback TCP. See doc.go, "The transport seam
// and node state machines".
type (
	// NodeMachine is one node's protocol logic: dial and push on OnStep,
	// answer pulls in OnOpen (read-only), absorb deliveries in OnReceive,
	// transition in OnStepEnd.
	NodeMachine = phone.Machine
	// GossipTransport executes one logical step of a machine set.
	GossipTransport = phone.Transport
	// StepTally counts one step's channel openings, pushes and responses.
	StepTally = phone.StepTally
	// TransportFactory builds a transport over a machine set; pass
	// SyncTransportFactory or AsyncTransportFactory to the *Over runners.
	TransportFactory = core.TransportFactory
	// MachineDriver steps a transport until a completion predicate or a
	// step cap.
	MachineDriver = core.Driver
	// BroadcastMachines is a single-rumor broadcast as a machine set:
	// build with NewBroadcastMachines, run on any transport, then read
	// per-node informed steps and delivered payloads.
	BroadcastMachines = core.BroadcastSet
	// LeaderMachines is Algorithm 3 as a machine set: build with
	// NewLeaderMachines, run on any transport (or hand the machines to a
	// step loop of your own), poll Complete, then Resolve the outcome.
	LeaderMachines = core.LeaderSet
	// GossipdConfig configures ServeGossipd.
	GossipdConfig = gossipd.Config
	// GossipdReport describes a finished ServeGossipd run.
	GossipdReport = gossipd.Report
	// GossipdElectionConfig configures ServeGossipdElection.
	GossipdElectionConfig = gossipd.ElectionConfig
	// GossipdElectionReport describes a finished ServeGossipdElection run.
	GossipdElectionReport = gossipd.ElectionReport
)

// Transport factories for the *Over runners and MachineDriver.
var (
	// SyncTransportFactory builds the synchronous round transport
	// (deterministic, parallel, bit-identical to the historic loops).
	SyncTransportFactory TransportFactory = core.SyncTransport
	// AsyncTransportFactory builds the goroutine-per-node transport.
	AsyncTransportFactory TransportFactory = core.AsyncTransport
)

// NewSyncTransport builds the synchronous round transport over ms.
func NewSyncTransport(ms []NodeMachine) GossipTransport { return phone.NewSync(ms) }

// NewAsyncTransport builds the goroutine-per-node transport over ms
// (Close it when done — it owns goroutines).
func NewAsyncTransport(ms []NodeMachine) GossipTransport { return phone.NewAsync(ms) }

// NewBroadcastMachines builds the machine set disseminating payload from
// src on g under the given transmission rule. A nil payload broadcasts a
// plain marker.
func NewBroadcastMachines(g *Graph, src int32, mode BroadcastMode, payload any, seed uint64) *BroadcastMachines {
	return core.NewBroadcastSet(phone.NewNet(g, seed), src, mode, payload)
}

// RunBroadcastOver is RunBroadcast on a caller-chosen transport.
func RunBroadcastOver(g *Graph, src int32, mode BroadcastMode, seed uint64, maxSteps int, tf TransportFactory) *BroadcastResult {
	return core.BroadcastOver(g, src, mode, seed, maxSteps, tf)
}

// RunMemoryGossipOver is RunMemoryGossip on a caller-chosen transport:
// every phase of Algorithm 2 — the infrastructure trees, the gather
// replays, the final broadcast — runs as node state machines.
func RunMemoryGossipOver(g *Graph, p MemoryParams, seed uint64, leader int32, tf TransportFactory) *Result {
	return core.MemoryGossipOver(g, p, seed, leader, tf)
}

// RunMemoryGossipWithElectionOver is RunMemoryGossipWithElection on a
// caller-chosen transport.
func RunMemoryGossipWithElectionOver(g *Graph, p MemoryParams, lp LeaderParams, seed uint64, tf TransportFactory) (*Result, *LeaderResult) {
	return core.MemoryGossipWithElectionOver(g, p, lp, seed, tf)
}

// RunElectLeaderOver is RunElectLeader on a caller-chosen transport.
func RunElectLeaderOver(g *Graph, p LeaderParams, seed uint64, tf TransportFactory) *LeaderResult {
	return core.ElectLeaderOver(g, p, seed, tf)
}

// RunMemoryBroadcastOver is RunMemoryBroadcast on a caller-chosen
// transport.
func RunMemoryBroadcastOver(g *Graph, p MemoryParams, root int32, seed uint64, tf TransportFactory) *BroadcastResult {
	return core.MemoryBroadcastOver(g, p, root, seed, tf)
}

// NewLeaderMachines flips the Algorithm 3 candidate coins and returns the
// election machine set over g, ready for any transport or step loop.
func NewLeaderMachines(g *Graph, p LeaderParams, seed uint64) *LeaderMachines {
	return core.NewLeaderSet(phone.NewNet(g, seed), p)
}

// ServeGossipd boots cfg.N gossip nodes over loopback TCP with a static
// peer table and runs a push–pull broadcast of cfg.Payload from node 0
// to completion; see cmd/gossipd for the command-line front end.
func ServeGossipd(cfg GossipdConfig) (*GossipdReport, error) { return gossipd.Serve(cfg) }

// ServeGossipdElection boots cfg.N gossip nodes over loopback TCP and
// runs the Algorithm 3 leader election until every node knows the unique
// winner; see cmd/gossipd's elect subcommand for the command-line front
// end.
func ServeGossipdElection(cfg GossipdElectionConfig) (*GossipdElectionReport, error) {
	return gossipd.ServeElection(cfg)
}

// NewComplete returns the complete graph K_n (the baseline topology of the
// paper's complete-graph comparisons).
func NewComplete(n int) *Graph { return graph.Complete(n) }

// NewHypercube returns the d-dimensional hypercube (2^d nodes).
func NewHypercube(d int) *Graph { return graph.Hypercube(d) }

// NewPreferentialAttachment returns a Barabási–Albert graph with m edges
// per arriving node (the [17] graph class).
func NewPreferentialAttachment(n, m int, seed uint64) *Graph {
	return graph.PreferentialAttachment(n, m, xrand.New(seed))
}

// ExperimentConfig scales and seeds a paper experiment (see Experiment).
type ExperimentConfig = exp.Config

// ExperimentReport is a rendered experiment: a table, plot series and
// notes. Render it to any io.Writer or export CSV with WriteCSV.
type ExperimentReport = exp.Report

// experimentRegistry maps experiment IDs to constructors.
var experimentRegistry = map[string]func(exp.Config) *exp.Report{
	"figure1":                exp.Figure1,
	"figure2":                exp.Figure2,
	"figure3":                exp.Figure3,
	"figure4":                exp.Figure4,
	"figure5":                exp.Figure5,
	"table1":                 exp.Table1,
	"ablation_density":       exp.AblationDensity,
	"ablation_walkprob":      exp.AblationWalkProb,
	"ablation_memslots":      exp.AblationMemorySlots,
	"ablation_trees":         exp.AblationTrees,
	"ablation_broadcast":     exp.AblationBroadcast,
	"ablation_complete":      exp.AblationComplete,
	"ablation_mediancounter": exp.AblationMedianCounter,
	"ablation_tradeoff":      exp.AblationTradeoff,
}

// ExperimentIDs lists the available experiment IDs in stable order:
// the paper's tables and figures first, then the ablations.
func ExperimentIDs() []string {
	return []string{
		"table1", "figure1", "figure2", "figure3", "figure4", "figure5",
		"ablation_density", "ablation_walkprob", "ablation_memslots",
		"ablation_trees", "ablation_broadcast", "ablation_complete",
		"ablation_mediancounter", "ablation_tradeoff",
	}
}

// Experiment runs the identified paper experiment (see ExperimentIDs) at
// the configured scale and returns its report.
func Experiment(id string, cfg ExperimentConfig) (*ExperimentReport, error) {
	mk, ok := experimentRegistry[id]
	if !ok {
		return nil, fmt.Errorf("gossip: unknown experiment %q (known: %v)", id, ExperimentIDs())
	}
	return mk(cfg), nil
}

// The scenario-sweep engine (internal/runner): declare a SweepGrid of
// algorithm × graph model × density × size × failure-count cells, run it
// with RunSweep, and render the per-cell aggregates as a table, CSV, or a
// JSON-lines stream. Results are deterministic for a (grid, seed) pair at
// any worker count; `gossipsim sweep` is the command-line front end.
type (
	// SweepScenario names one grid cell.
	SweepScenario = runner.Scenario
	// SweepGrid declares a cross-product of scenario dimensions.
	SweepGrid = runner.Grid
	// SweepFailureSpec is a failure count, absolute or a fraction of n.
	SweepFailureSpec = runner.FailureSpec
	// SweepCellResult aggregates one cell's repetitions per metric.
	SweepCellResult = runner.CellResult
	// SweepCellRange selects a shard of a grid's cells ("s/m" modular
	// deal or an explicit index range); the zero value selects all.
	SweepCellRange = runner.CellRange
)

// SweepAlgos lists the algorithm names RunSweep understands.
func SweepAlgos() []string { return runner.Algos() }

// SweepModels lists the graph-model names RunSweep understands.
func SweepModels() []string { return runner.Models() }

// ParseSweepFailureSpec parses "5000" (absolute) or "2.5%" (fraction of n).
func ParseSweepFailureSpec(s string) (SweepFailureSpec, error) {
	return runner.ParseFailureSpec(s)
}

// RunSweep expands the grid and executes every cell on a bounded worker
// pool (workers <= 0 uses GOMAXPROCS). Per-cell seeds derive from the
// grid's master seed and the cell index, so results are bit-identical at
// any parallelism.
func RunSweep(g SweepGrid, workers int) []SweepCellResult {
	r := &runner.Runner{Workers: workers}
	return r.RunGrid(g)
}

// ParseSweepCellRange parses a shard selector: "s/m" (cells i with
// i mod m == s) or "lo..hi" (the half-open index range); "" selects
// every cell.
func ParseSweepCellRange(s string) (SweepCellRange, error) {
	return runner.ParseCellRange(s)
}

// RunSweepShard executes only the grid cells cr selects, in ascending
// cell-index order. Cell indices, seeds, and therefore records are
// those of the full grid, so shards computed on different machines
// together equal one full sweep.
func RunSweepShard(g SweepGrid, cr SweepCellRange, workers int) []SweepCellResult {
	r := &runner.Runner{Workers: workers}
	return r.RunGridShard(g, cr)
}

// SweepTable renders sweep results as one row per cell.
func SweepTable(title string, results []SweepCellResult) *sweep.Table {
	return runner.Table(title, results)
}

// WriteSweepJSONL streams sweep results as one JSON object per cell.
func WriteSweepJSONL(w io.Writer, results []SweepCellResult) error {
	return runner.WriteJSONL(w, results)
}

// The sweep corpus (internal/corpus): a persistent, generational store
// of sweep runs with content-addressed run IDs, cross-run regression
// comparison, and checkpoint/resume. A run directory holds
// manifest.json (the grid declaration and provenance) plus cells.jsonl
// (one SweepRecord per line, in cell order); in a Corpus each run ID
// holds an ordered set of such directories — one generation per
// archived code revision — resolved by "id[@gen]" selectors.
// `gossipsim archive/compare/report/trend/prune` and the `gossipsim
// sweep -out/-resume` flags are the command-line front end.
type (
	// Corpus is a directory of stored runs keyed by content-addressed
	// ID, each an ordered set of generations.
	Corpus = corpus.Store
	// CorpusRun is one stored run (manifest + cells); in a Corpus it is
	// one generation of its run ID.
	CorpusRun = corpus.Run
	// CorpusManifest describes a stored run.
	CorpusManifest = corpus.Manifest
	// CorpusFilter selects runs/cells by grid coordinates.
	CorpusFilter = corpus.Filter
	// CorpusProvenance labels an archived generation: workers, creation
	// time, code revision.
	CorpusProvenance = corpus.Provenance
	// CorpusAppended reports an Archive/Import decision: the generation
	// written (or deduped against), whether one was added, and both
	// generations' provenance.
	CorpusAppended = corpus.Appended
	// CorpusDamaged reports a store entry listing skipped because it
	// could not be opened.
	CorpusDamaged = corpus.Damaged
	// CorpusTrend is one configuration family's metric history across
	// its stored generations.
	CorpusTrend = corpus.Trend
	// CorpusTrendPoint is one generation's aggregate in a trend.
	CorpusTrendPoint = corpus.TrendPoint
	// CorpusPruneOptions selects which generations CorpusRun GC removes.
	CorpusPruneOptions = corpus.PruneOptions
	// CorpusPrunePlan reports what a prune pass removed (or would).
	CorpusPrunePlan = corpus.PrunePlan
	// CorpusPruneVictim is one directory a prune pass removed.
	CorpusPruneVictim = corpus.PruneVictim
	// SweepRecord is the serialized form of one sweep cell — the JSONL
	// line format of both the sweep stream and the corpus.
	SweepRecord = runner.CellRecord
	// SweepMetricAgg is one metric's stored aggregate.
	SweepMetricAgg = runner.MetricAgg
	// SweepTolerance bounds acceptable drift in a run comparison.
	SweepTolerance = corpus.Tolerance
	// SweepToleranceProfile maps each metric to its own drift bound,
	// with a default for unlisted metrics.
	SweepToleranceProfile = corpus.Profile
	// SweepComparison is the metric-by-metric diff of two runs.
	SweepComparison = corpus.Comparison
	// SweepStream re-orders completed cells into a JSON-lines stream.
	SweepStream = runner.OrderedJSONL
)

// OpenCorpus opens (creating if needed) a corpus directory.
func OpenCorpus(dir string) (*Corpus, error) { return corpus.Open(dir) }

// OpenCorpusRun opens one stored run directory, verifying its
// content-addressed ID against its manifest.
func OpenCorpusRun(dir string) (*CorpusRun, error) { return corpus.OpenRun(dir) }

// SweepRunID returns the content-addressed run ID of a grid: identical
// configurations (canonical grid + master seed) map to identical IDs.
func SweepRunID(g SweepGrid) string { return corpus.GridID(g) }

// ExecuteSweepRun runs the grid with checkpointing: every completed
// cell streams to dir/cells.jsonl in cell order, so a killed sweep
// restarted with resume skips the completed prefix and produces a file
// bit-identical to an uninterrupted run's. onRecord, if non-nil,
// observes the full record sequence in strict cell order as it becomes
// available (a resumed run's loaded prefix replays immediately) — a
// live tee of cells.jsonl. It returns the stored run and its full
// record set.
func ExecuteSweepRun(dir string, g SweepGrid, workers int, resume bool, onRecord func(SweepRecord)) (*CorpusRun, []SweepRecord, error) {
	return corpus.ExecuteRun(dir, g, workers, resume, onRecord)
}

// ExecuteSweepShard is ExecuteSweepRun restricted to cr's shard of the
// grid: dir becomes a partial run holding exactly the owned cells (its
// manifest gains a shard stanza under the full grid's run ID), each
// record bit-identical to the same cell of a full run. A killed shard
// resumes with resume=true exactly like a full run. Disjoint sibling
// shards combine into the full run with MergeRuns (`gossipsim merge`).
func ExecuteSweepShard(dir string, g SweepGrid, cr SweepCellRange, workers int, resume bool, onRecord func(SweepRecord)) (*CorpusRun, []SweepRecord, error) {
	return corpus.ExecuteRunShard(dir, g, cr, workers, resume, onRecord)
}

// MergeRuns merges completed shard runs of one sweep into a full run
// at dir, validating that the shards share one configuration and cover
// the grid disjointly; the merged cells.jsonl is byte-identical to a
// single-process sweep's.
func MergeRuns(dir string, runs []*CorpusRun) (*CorpusRun, error) {
	return corpus.MergeRuns(dir, runs)
}

// CompareRuns diffs a candidate run against a reference metric by
// metric under one uniform tolerance; see SweepComparison.Regressed
// for the gate verdict.
func CompareRuns(ref, cand *CorpusRun, tol SweepTolerance) (*SweepComparison, error) {
	return corpus.CompareRuns(ref, cand, tol)
}

// CompareRunsProfile is CompareRuns under a per-metric tolerance
// profile (NamedSweepProfile, UniformSweepProfile).
func CompareRunsProfile(ref, cand *CorpusRun, p SweepToleranceProfile) (*SweepComparison, error) {
	return corpus.CompareRunsProfile(ref, cand, p)
}

// CompareSweepRecords is CompareRuns over in-memory record sets.
func CompareSweepRecords(ref, cand []SweepRecord, tol SweepTolerance) *SweepComparison {
	return corpus.Compare(ref, cand, tol)
}

// CompareSweepRecordsProfile is CompareRunsProfile over in-memory
// record sets.
func CompareSweepRecordsProfile(ref, cand []SweepRecord, p SweepToleranceProfile) *SweepComparison {
	return corpus.CompareProfile(ref, cand, p)
}

// NamedSweepProfile returns a built-in per-metric tolerance profile:
// "exact" (zero tolerance everywhere) or "ci" (completed exact, steps
// ±1 round absolute, message/packet volumes 5% relative).
func NamedSweepProfile(name string) (SweepToleranceProfile, error) {
	return corpus.NamedProfile(name)
}

// SweepProfileNames lists the built-in tolerance profiles.
func SweepProfileNames() []string { return corpus.ProfileNames() }

// UniformSweepProfile gates every metric with the same tolerance.
func UniformSweepProfile(t SweepTolerance) SweepToleranceProfile {
	return corpus.UniformProfile(t)
}

// CorpusTrendOf aggregates the generations of one run (oldest first —
// the order Corpus.Generations returns) into a per-metric trend,
// restricted to cells matching f.
func CorpusTrendOf(gens []*CorpusRun, f CorpusFilter) (*CorpusTrend, error) {
	return corpus.TrendOf(gens, f)
}

// The corpus service and index (internal/corpus + internal/corpusd):
// a per-store index.json answers listings and filter queries without
// scanning run directories, and the corpusd HTTP server exposes the
// store — listings, manifests, streamed cells, trends, regression
// compares, metrics, a dashboard — over one port (`gossipsim serve`).
type (
	// CorpusIndex is a store's query index: one entry per run ID, with
	// grid axis ranges and the generation list.
	CorpusIndex = corpus.Index
	// CorpusIndexEntry summarizes one run ID in the index.
	CorpusIndexEntry = corpus.IndexEntry
	// CorpusGenInfo summarizes one stored generation for listings.
	CorpusGenInfo = corpus.GenInfo
	// CorpusRunSummary is one run's line item in a store listing — the
	// JSON shape `gossipsim archive -json` and GET /runs share.
	CorpusRunSummary = corpus.RunSummary
	// CorpusRunDetail is one generation in full: summary, manifest,
	// sibling generations (GET /runs/{id[@gen]}).
	CorpusRunDetail = corpus.RunDetail
	// CorpusReportView is a stored run's full content as one JSON
	// document (`gossipsim report -json`, GET /runs/{sel}/report).
	CorpusReportView = corpus.ReportView
	// CorpusCompareResult wraps a comparison with its gate verdict
	// (`gossipsim compare -json`, GET /compare).
	CorpusCompareResult = corpus.CompareResult
	// CorpusManifestFile is the checked-in corpus manifest: tolerance
	// profiles and named grids by name.
	CorpusManifestFile = corpus.ManifestFile
	// CorpusServer is the corpus HTTP service, an http.Handler.
	CorpusServer = corpusd.Server
)

// OpenIndexedCorpus opens a corpus directory and ensures its query
// index exists, building it from the store's directories if missing or
// stale in schema. The returned index answers listings in O(result);
// Corpus.RebuildIndex repairs one a non-index-aware tool invalidated.
func OpenIndexedCorpus(dir string) (*Corpus, *CorpusIndex, error) {
	store, err := corpus.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	idx, err := store.EnsureIndex()
	if err != nil {
		return nil, nil, err
	}
	return store, idx, nil
}

// LoadCorpusManifestFile reads and validates a corpus manifest file
// (tolerance profiles + named grids; see corpus.manifest.json at the
// repository root for the schema).
func LoadCorpusManifestFile(path string) (*CorpusManifestFile, error) {
	return corpus.LoadManifestFile(path)
}

// ResolveSweepProfile resolves a -profile argument: a built-in profile
// name, or "@file[:name]" naming one declared in a corpus manifest
// file.
func ResolveSweepProfile(spec string) (SweepToleranceProfile, error) {
	return corpus.ResolveProfile(spec)
}

// NewCorpusServer builds the corpus HTTP service over a store; mf (may
// be nil) supplies tolerance profiles and named grids.
func NewCorpusServer(store *Corpus, mf *CorpusManifestFile) (*CorpusServer, error) {
	return corpusd.New(store, mf)
}

// ServeCorpus serves a corpus store over HTTP on addr (":0" picks a
// free port, reported through ready, which may be nil) until ctx is
// canceled, then shuts down gracefully.
func ServeCorpus(ctx context.Context, addr string, store *Corpus, mf *CorpusManifestFile, ready func(net.Addr)) error {
	srv, err := corpusd.New(store, mf)
	if err != nil {
		return err
	}
	return corpusd.ListenAndServe(ctx, addr, srv, ready)
}

// WriteCorpusJSON encodes a corpus view value exactly as the daemon
// endpoints and the CLI -json flags do, so all three produce identical
// bytes for equal values.
func WriteCorpusJSON(w io.Writer, v any) error { return corpus.WriteJSON(w, v) }

// NewCorpusReportView loads a run's records into its report view.
func NewCorpusReportView(r *CorpusRun) (*CorpusReportView, error) {
	return corpus.NewReportView(r)
}

// NewCorpusCompareResult wraps a comparison with its serialized gate
// verdict.
func NewCorpusCompareResult(c *SweepComparison) *CorpusCompareResult {
	return corpus.NewCompareResult(c)
}

// BuildRevision reports the code revision baked into the running
// binary (vcs.revision, truncated), or "" when the build carries none
// — the default provenance stamped on runs and archived generations.
func BuildRevision() string { return corpus.BuildRevision() }

// ReportRun renders a stored run as its aggregate table plus ASCII
// plots of the gossip metrics against the run's moving axis.
func ReportRun(w io.Writer, r *CorpusRun) error { return corpus.Report(w, r) }

// SweepRecordTable renders stored records as one row per cell — the
// same table SweepTable renders for in-memory results.
func SweepRecordTable(title string, recs []SweepRecord) *sweep.Table {
	return runner.RecordTable(title, recs)
}

// WriteSweepRecordJSONL streams stored records as JSON lines.
func WriteSweepRecordJSONL(w io.Writer, recs []SweepRecord) error {
	return runner.WriteRecordJSONL(w, recs)
}

// NewSweepStream returns a writer that accepts completed cells in any
// order (wire it as the RunSweepShardStream callback) and emits them to
// w as JSON lines in strict cell order, as each becomes contiguous. seq
// lists the cells to expect, ascending — a SweepCellRange's Indices, or
// nil for every cell; cells outside it are ignored.
func NewSweepStream(w io.Writer, seq []int) *SweepStream { return runner.NewOrderedJSONL(w, seq, 0) }

// SweepRecordStream re-orders a parallel sweep's completion order back
// into cell order, handing each record to a consumer callback — the
// generalization of SweepStream to sinks that are not io.Writers.
type SweepRecordStream = runner.OrderedCells

// NewSweepRecordStream is NewSweepStream invoking emit once per cell of
// seq, in that order.
func NewSweepRecordStream(seq []int, emit func(SweepRecord) error) *SweepRecordStream {
	return runner.NewOrderedCells(seq, 0, emit)
}

// The shard dispatcher (internal/dispatch): run a grid as m shard
// subprocesses of one command from a single invocation — launched on a
// bounded process pool, monitored live by counting completed cells in
// each shard's cells.jsonl, crashed or killed shards restarted with
// resume under a retry budget, and the completed shards merged into a
// full run byte-identical to a single-process sweep. `gossipsim
// dispatch` is the command-line front end.
type (
	// SweepDispatch configures DispatchSweep: the grid, the shard and
	// process counts, the retry budget, the shard command, and the
	// scratch/output directories.
	SweepDispatch = dispatch.Config
	// SweepShardStatus reports one dispatched shard's progress and
	// outcome (cells done / owned, restarts, state, stderr tail).
	SweepShardStatus = dispatch.ShardStatus
)

// Shard lifecycle states reported by SweepShardStatus.State.
const (
	ShardQueued  = dispatch.StateQueued
	ShardRunning = dispatch.StateRunning
	ShardDone    = dispatch.StateDone
	ShardFailed  = dispatch.StateFailed
)

// DispatchSweep launches, monitors, retries and merges the configured
// sweep's shard subprocesses. It returns the merged run and the final
// per-shard statuses; on error (a shard out of retries, an invalid
// merge) the statuses are still returned for reporting.
func DispatchSweep(cfg SweepDispatch) (*CorpusRun, []SweepShardStatus, error) {
	return dispatch.Run(cfg)
}

// SweepCellsDone cheaply counts the completed cells checkpointed in a
// run directory — the dispatcher's live progress probe, usable against
// a shard another process is still writing.
func SweepCellsDone(dir string) (int, error) { return corpus.CellsDone(dir) }

// RunSweepStream is RunSweep with an on-completion callback: onCell is
// invoked serially for each cell as it finishes (in completion order —
// pair with NewSweepStream to re-establish cell order).
func RunSweepStream(g SweepGrid, workers int, onCell func(SweepCellResult)) []SweepCellResult {
	return RunSweepShardStream(g, SweepCellRange{}, workers, onCell)
}

// RunSweepShardStream is RunSweepShard with an on-completion callback
// (pair with NewSweepStream over the shard's owned indices to
// re-establish cell order).
func RunSweepShardStream(g SweepGrid, cr SweepCellRange, workers int, onCell func(SweepCellResult)) []SweepCellResult {
	r := &runner.Runner{Workers: workers, OnCell: onCell}
	return r.RunGridShard(g, cr)
}
