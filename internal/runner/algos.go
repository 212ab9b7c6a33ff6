package runner

import (
	"gossip/internal/core"
	"gossip/internal/graph"
)

// knobs is the set of optional Scenario fields an algorithm reads. A
// grid axis collapses to its single schedule-default cell for every
// algorithm that does not read its knob, so a mixed grid never reports
// cells whose knobs were silently ignored.
type knobs uint8

const (
	knobFailures knobs = 1 << iota // Failures (the §5 robustness experiment)
	knobMemory                     // Trees and MemSlots
	knobWalkProb                   // WalkProb
	knobSampleK                    // SampleK
)

// algo declares one sweep algorithm: its menu name, the knobs it reads,
// and how one repetition of a cell runs on the cell's graph and
// protocol seed.
type algo struct {
	name  string
	knobs knobs
	run   func(g *graph.Graph, s Scenario, seed uint64) Metrics
}

// algoTable is the one place a sweep algorithm is declared, in menu
// order: Algos, Execute, Grid.Validate, the per-algorithm axis collapse
// of Grid.Scenarios and Scenario.Canonical all read it, so adding an
// algorithm is its machines in internal/core plus one entry here.
var algoTable = []algo{
	{"pushpull", 0, func(g *graph.Graph, _ Scenario, seed uint64) Metrics {
		return gossipMetrics(core.PushPull(g, seed, 0))
	}},
	// The push–pull baseline observed through the Θ(n·k) sampled
	// tracker, for sizes beyond the exact tracker's n² memory wall.
	{"sampled", knobSampleK, func(g *graph.Graph, s Scenario, seed uint64) Metrics {
		res := core.PushPullSampledOver(g, seed, sampleK(s.SampleK), 0, core.SyncTransport)
		return accounting(res.TransmissionsPerNode(), res.Steps, res.Completed)
	}},
	{"fast", knobWalkProb, fastGossip(core.TunedFastGossipParams)},
	{"fast-theory", knobWalkProb, fastGossip(core.TheoryFastGossipParams)},
	{"memory", knobFailures | knobMemory, memoryGossip},
	{"broadcast-push", 0, broadcast(core.PushOnly)},
	{"broadcast-pull", 0, broadcast(core.PullOnly)},
	{"broadcast-pushpull", 0, broadcast(core.PushAndPull)},
}

// lookupAlgo returns the named entry. An unknown name yields the zero
// entry — it reads no knob and cannot run.
func lookupAlgo(name string) (algo, bool) {
	for _, a := range algoTable {
		if a.name == name {
			return a, true
		}
	}
	return algo{}, false
}

// Algos lists the algorithm names Execute understands, in menu order.
func Algos() []string {
	names := make([]string, len(algoTable))
	for i, a := range algoTable {
		names[i] = a.name
	}
	return names
}

// sampleK resolves the SampleK knob's "0 = default".
func sampleK(k int) int {
	if k <= 0 {
		return DefaultSampleK
	}
	return k
}

// accounting assembles the common metrics of a completed-or-capped run.
func accounting(msgsPerNode float64, steps int, completed bool) Metrics {
	done := 0.0
	if completed {
		done = 1
	}
	return Metrics{"msgs_per_node": msgsPerNode, "steps": float64(steps), "completed": done}
}

func gossipMetrics(res *core.Result) Metrics {
	return accounting(res.TransmissionsPerNode(), res.Steps, res.Completed)
}

func fastGossip(schedule func(n int) core.FastGossipParams) func(*graph.Graph, Scenario, uint64) Metrics {
	return func(g *graph.Graph, s Scenario, seed uint64) Metrics {
		params := schedule(s.N)
		if s.WalkProb > 0 {
			params.WalkProb = s.WalkProb
		}
		return gossipMetrics(core.FastGossip(g, params, seed))
	}
}

func memoryGossip(g *graph.Graph, s Scenario, seed uint64) Metrics {
	params := core.TunedMemoryParams(s.N)
	if s.MemSlots > 0 {
		params.MemSlots = s.MemSlots
	}
	if s.Trees > 0 {
		params.Trees = s.Trees
	}
	if s.Failures <= 0 {
		return gossipMetrics(core.MemoryGossip(g, params, seed, -1))
	}
	if s.Trees <= 0 {
		// The §5 robustness setting: 3 independent gather trees.
		params.Trees = 3
	}
	res := core.MemoryRobustness(g, params, seed, s.Failures)
	return Metrics{
		"ratio":           res.Ratio,
		"lost_additional": float64(res.LostAdditional),
		"failed":          float64(res.Failed),
	}
}

func broadcast(mode core.BroadcastMode) func(*graph.Graph, Scenario, uint64) Metrics {
	return func(g *graph.Graph, _ Scenario, seed uint64) Metrics {
		res := core.Broadcast(g, 0, mode, seed, 0)
		return accounting(res.TransmissionsPerNode(), res.Steps, res.Completed)
	}
}
