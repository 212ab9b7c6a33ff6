package graph

import (
	"runtime"
	"slices"
	"testing"

	"gossip/internal/xrand"
)

// drainSpare empties the spare slot, so that a test does not depend on
// what an earlier one released.
func drainSpare() { Complete(1) }

// TestReleaseChainMatchesFreshBuilds builds a chain of graphs of every
// generator, releasing each before the next is built, and requires each to
// be Validate-clean and equal, offsets and adjacency, to a fresh build from
// the same seed. reused says whether the spare was big enough, so that the
// graph must sit in the previous one's adjacency storage.
func TestReleaseChainMatchesFreshBuilds(t *testing.T) {
	const n = 2048
	l2 := PLogSquared(n) * n // log²n, the paper's degree
	chain := []struct {
		name   string
		build  func(rng *xrand.RNG) *Graph
		reused bool
	}{
		{"er 2048 density 2", func(rng *xrand.RNG) *Graph { return ErdosRenyi(n, 2*PLogSquared(n), rng) }, false},
		{"regular 0.25", func(rng *xrand.RNG) *Graph { return ConfigurationModel(n, int(0.25*l2+0.5), rng) }, true},
		{"powerlaw", func(rng *xrand.RNG) *Graph { return ChungLu(PowerLawWeights(n, 2.5, 8), rng) }, true},
		{"complete", func(*xrand.RNG) *Graph { return Complete(n) }, false},
		{"er 8192", func(rng *xrand.RNG) *Graph { return ErdosRenyi(8192, PLogSquared(8192), rng) }, false},
		{"er 2048", func(rng *xrand.RNG) *Graph { return ErdosRenyi(n, PLogSquared(n), rng) }, true},
	}
	drainSpare()
	var prev *int32 // the released graph's adjacency storage
	for i, c := range chain {
		seed := uint64(100 + i)
		g := c.build(xrand.New(seed))
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if reused := len(g.adj) > 0 && &g.adj[0] == prev; reused != c.reused {
			t.Errorf("%s: built in the released graph's storage = %v, want %v", c.name, reused, c.reused)
		}
		drainSpare() // a regular build that reused storage left its stubs there
		fresh := c.build(xrand.New(seed))
		if g.n != fresh.n || !slices.Equal(g.off, fresh.off) || !slices.Equal(g.adj, fresh.adj) {
			t.Fatalf("%s: graph built after a Release differs from a fresh build", c.name)
		}
		prev = &g.adj[:1][0]
		g.Release()
	}
	drainSpare()
}

// TestConfigurationModelPassesStubsOn: a configuration-model build leaves
// its stubs in the slot when it reused released storage, so that they
// live as long as the graph, and leaves the slot empty when it did not, so
// that a program that never releases holds no spare.
func TestConfigurationModelPassesStubsOn(t *testing.T) {
	const n, d = 512, 30
	drainSpare()
	defer drainSpare()
	ConfigurationModel(n, d, xrand.New(1))
	if _, adj := swap(nil, nil); adj != nil {
		t.Fatalf("a build without a released spare left %d entries in the slot", len(adj))
	}
	ErdosRenyi(n, 0.2, xrand.New(2)).Release()
	g := ConfigurationModel(n, d, xrand.New(3))
	_, adj := swap(nil, nil)
	if len(adj) != n*d || &adj[0] == &g.adj[0] {
		t.Fatalf("a build in released storage left %d entries in the slot, want its %d stubs", len(adj), n*d)
	}
}

// TestReleasePoisons requires every per-node accessor of a released graph,
// stored or implicit, to panic and Validate to fail.
func TestReleasePoisons(t *testing.T) {
	drainSpare()
	defer drainSpare()
	for _, g := range []*Graph{ErdosRenyi(64, 0.2, xrand.New(1)), Complete(8)} {
		g.Release()
		for _, c := range []struct {
			name string
			use  func()
		}{
			{"Degree", func() { g.Degree(0) }},
			{"Neighbor", func() { g.Neighbor(0, 0) }},
			{"Neighbors", func() { g.Neighbors(0) }},
			{"RandomNeighbor", func() { g.RandomNeighbor(0, xrand.New(1)) }},
			{"RandomNeighborAvoid", func() { g.RandomNeighborAvoid(0, xrand.New(1), nil) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on a released graph did not panic", c.name)
					}
				}()
				c.use()
			}()
		}
		if g.Validate() == nil {
			t.Error("Validate passed a released graph")
		}
	}
}

// TestReleaseReusesStorage: a second G(n, p) of the same size, built after
// the first is released, allocates under a quarter of the first's bytes.
func TestReleaseReusesStorage(t *testing.T) {
	const n = 1 << 14
	drainSpare()
	defer drainSpare()
	build := func(seed uint64) (*Graph, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := ErdosRenyi(n, PLogSquared(n), xrand.New(seed))
		runtime.ReadMemStats(&after)
		return g, after.TotalAlloc - before.TotalAlloc
	}
	g, first := build(1)
	g.Release()
	_, second := build(2)
	if second >= first/4 {
		t.Fatalf("second build after Release allocated %d B, first %d B: want < 1/4", second, first)
	}
}

// TestChungLuAllocatesEdgeListOnce: the edge list is sized from the
// expected edge count, so that a build does not leave a trail of grown
// copies behind it (the allocations are order and its sort's closure, the
// list, off, adj and the Graph).
func TestChungLuAllocatesEdgeListOnce(t *testing.T) {
	w := PowerLawWeights(2048, 2.5, 16)
	drainSpare()
	if a := testing.AllocsPerRun(5, func() { ChungLu(w, xrand.New(1)) }); a > 6 {
		t.Fatalf("ChungLu made %v allocations, want ≤ 6", a)
	}
	// One positive weight: S − Σw²/S is 0, and rounds below it at 0.1.
	for _, w := range [][]float64{{0.1, 0, 0}, {0.3}, {5, 0}} {
		if g := ChungLu(w, xrand.New(1)); g.M() != 0 {
			t.Fatalf("ChungLu(%v) has %d edges, want 0", w, g.M())
		}
	}
}
