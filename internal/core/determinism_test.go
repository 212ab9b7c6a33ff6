package core

import (
	"runtime"
	"strings"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/xrand"
)

// TestDeterminismAcrossGOMAXPROCS is the load-bearing reproducibility
// claim: every simulation result is a pure function of (graph, params,
// seed), independent of how many cores execute the parallel loops.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	n := 1024
	g := testGraph(n, 90)

	type snapshot struct {
		ppSteps, fgSteps, mmSteps int
		ppTrans, fgTrans, mmTrans int64
		leader                    int32
		lost                      int
	}
	capture := func() snapshot {
		pp := PushPull(g, 7, 0)
		fg := FastGossip(g, TunedFastGossipParams(n), 8)
		mm := MemoryGossip(g, TunedMemoryParams(n), 9, -1)
		p := TunedMemoryParams(n)
		p.Trees = 3
		rb := MemoryRobustness(g, p, 10, 64)
		return snapshot{
			ppSteps: pp.Steps, fgSteps: fg.Steps, mmSteps: mm.Steps,
			ppTrans: pp.Meter.Transmissions, fgTrans: fg.Meter.Transmissions,
			mmTrans: mm.Meter.Transmissions,
			leader:  mm.Leader, lost: rb.LostAdditional,
		}
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	serial := capture()
	runtime.GOMAXPROCS(prev)
	parallel := capture()

	if serial != parallel {
		t.Errorf("results depend on GOMAXPROCS:\n serial:   %+v\n parallel: %+v", serial, parallel)
	}
}

// hypercube is the d-dimensional hypercube on 2^d nodes.
func hypercube(d int) *graph.Graph {
	var edges []graph.Edge
	for v := 0; v < 1<<d; v++ {
		for i := 0; i < d; i++ {
			if u := v ^ 1<<i; u > v {
				edges = append(edges, graph.Edge{U: int32(v), V: int32(u)})
			}
		}
	}
	return graph.FromEdges(1<<d, edges)
}

func TestAlgorithmsOnAlternativeTopologies(t *testing.T) {
	// The paper proves its theorems for both G(n,p) and the configuration
	// model; the algorithms should also behave on the extension
	// topologies (power-law, hypercube) since they only use the
	// random-neighbor primitive.
	n := 512
	rng := xrand.New(91)
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"config-model", graph.ConfigurationModel(n, 32, rng)},
		{"powerlaw", graph.ChungLu(graph.PowerLawWeights(n, 2.5, 12), rng)},
		{"hypercube", hypercube(9)},
	}
	for _, tc := range cases {
		nn := tc.g.N()
		pp := PushPull(tc.g, 92, 0)
		if !pp.Completed {
			t.Errorf("%s: push-pull incomplete", tc.name)
		}
		fg := FastGossip(tc.g, TunedFastGossipParams(nn), 93)
		if !fg.Completed {
			t.Errorf("%s: fast-gossiping incomplete", tc.name)
		}
	}
}

func TestMemoryGossipOnDenseRegular(t *testing.T) {
	// d > log^κ n regime of the analysis (Lemma 13 case split).
	n := 512
	g := graph.ConfigurationModel(n, 128, xrand.New(94))
	res := MemoryGossip(g, TunedMemoryParams(n), 95, -1)
	if !res.Completed {
		t.Errorf("memory gossip incomplete on dense regular graph: %v", res)
	}
}

func TestResultStringRendering(t *testing.T) {
	n := 256
	res := PushPull(testGraph(n, 96), 97, 0)
	s := res.String()
	for _, want := range []string{"push-pull", "steps=", "msgs/node="} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String missing %q in %q", want, s)
		}
	}
}
