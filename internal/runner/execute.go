package runner

import (
	"fmt"
	"math"
	"slices"

	"gossip/internal/graph"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

// Seed-stream tags separating graph construction from protocol randomness
// within one (cell, rep) seed.
const (
	tagGraph = 0x67726170 // "grap"
	tagRun   = 0x72756e21 // "run!"
)

// DefaultSampleK is the tracked-message count of the "sampled"
// estimator when a scenario does not set one. 64 messages keep the
// completion estimate within the additive-O(1)-round gap msg.Sampled
// documents while costing Θ(n·64) bits instead of Θ(n²).
const DefaultSampleK = 64

// Models lists the graph-model names Execute understands, in menu order.
func Models() []string {
	return []string{"er", "regular", "powerlaw", "complete"}
}

// BuildGraph samples the scenario's topology from the given seed. The
// density knob scales the expected degree relative to the paper's log²n
// operating point (see Scenario.Density).
func BuildGraph(s Scenario, seed uint64) (*graph.Graph, error) {
	rng := xrand.New(seed)
	d := s.density()
	switch s.Model {
	case "er":
		p := d * graph.PLogSquared(s.N)
		if p > 1 {
			p = 1
		}
		return graph.ErdosRenyi(s.N, p, rng), nil
	case "regular":
		deg := int(d*graph.PLogSquared(s.N)*float64(s.N) + 0.5)
		if deg < 3 {
			deg = 3
		}
		if deg >= s.N {
			deg = s.N - 1
		}
		if s.N*deg%2 == 1 {
			deg++
		}
		return graph.ConfigurationModel(s.N, deg, rng), nil
	case "powerlaw":
		wmin := 8 * d
		if wmin < 2 {
			wmin = 2
		}
		return graph.ChungLu(graph.PowerLawWeights(s.N, 2.5, wmin), rng), nil
	case "complete":
		return graph.Complete(s.N), nil
	default:
		return nil, fmt.Errorf("runner: unknown model %q (known: %v)", s.Model, Models())
	}
}

// Execute is the standard ExecFunc: it builds the scenario's graph and
// runs its algorithm, both from streams split off the per-(cell, rep)
// seed, and reports the common accounting metrics. It then releases the
// graph, so the next build takes its storage. Unknown algorithm or
// model names panic — Validate a Grid's dimensions up front (the sweep
// command does) to reject them before any work runs.
func Execute(s Scenario, rep int, seed uint64) Metrics {
	g, err := BuildGraph(s, xrand.SeedFor(seed, tagGraph))
	if err != nil {
		panic(err)
	}
	a, ok := lookupAlgo(s.Algo)
	if !ok {
		panic(fmt.Errorf("runner: unknown algo %q (known: %v)", s.Algo, Algos()))
	}
	defer g.Release() // once the algorithm returns, the next build reuses g's storage
	return a.run(g, s, xrand.SeedFor(seed, tagRun))
}

// Validate rejects grids whose algorithm or model names Execute would
// panic on, before any cell runs.
func (g Grid) Validate() error {
	c := g.Canonical()
	for _, a := range c.Algos {
		if _, ok := lookupAlgo(a); !ok {
			return fmt.Errorf("runner: unknown algo %q (known: %v)", a, Algos())
		}
	}
	for _, m := range c.Models {
		if !slices.Contains(Models(), m) {
			return fmt.Errorf("runner: unknown model %q (known: %v)", m, Models())
		}
	}
	for _, n := range c.Sizes {
		if n < 2 {
			return fmt.Errorf("runner: graph size %d out of range", n)
		}
	}
	// The float axes are written as negated in-range tests so that NaN,
	// which compares false to everything, is rejected too.
	for _, d := range c.Densities {
		if !(d > 0) || math.IsInf(d, 1) {
			return fmt.Errorf("runner: density %g out of range (need finite > 0)", d)
		}
	}
	// A failure count must leave at least the leader standing, for every
	// size it will be resolved against (the robustness simulator crashes
	// f random non-leader nodes).
	for _, f := range c.Failures {
		for _, n := range c.Sizes {
			got := f.Resolve(n)
			if got < 0 {
				return fmt.Errorf("runner: failure count %s out of range (need >= 0)", f)
			}
			if got >= n {
				return fmt.Errorf("runner: failure count %s resolves to %d of n=%d nodes (need < n)", f, got, n)
			}
		}
	}
	// For the knob axes, 0 means "schedule default" and is always legal;
	// explicit values must be usable by the simulators that read them.
	for _, t := range c.Trees {
		if t < 0 {
			return fmt.Errorf("runner: tree count %d out of range (need >= 0)", t)
		}
	}
	for _, m := range c.MemSlots {
		if m < 0 || m > phone.MemorySlots {
			return fmt.Errorf("runner: memory slots %d out of range (need 0 <= m <= %d)", m, phone.MemorySlots)
		}
	}
	for _, p := range c.WalkProbs {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("runner: walk probability %g out of range (need 0 <= p <= 1)", p)
		}
	}
	if g.SampleK < 0 {
		return fmt.Errorf("runner: sample size %d out of range (need >= 0)", g.SampleK)
	}
	return nil
}
