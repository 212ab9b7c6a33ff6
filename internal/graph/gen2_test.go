package graph

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"gossip/internal/xrand"
)

func TestComplete(t *testing.T) {
	g := Complete(5)
	if g.N() != 5 || g.M() != 10 {
		t.Fatalf("K5: n=%d m=%d", g.N(), g.M())
	}
	for v := int32(0); v < 5; v++ {
		if g.Degree(v) != 4 {
			t.Errorf("K5 degree(%d) = %d", v, g.Degree(v))
		}
		for _, u := range g.Neighbors(v) {
			if u == v {
				t.Errorf("K5 self-loop at %d", v)
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if !IsConnected(g) {
		t.Error("K5 disconnected")
	}
}

func TestCompleteDegenerate(t *testing.T) {
	if g := Complete(0); g.N() != 0 {
		t.Error("K0 wrong")
	}
	if g := Complete(1); g.N() != 1 || g.M() != 0 {
		t.Error("K1 wrong")
	}
}

func TestCompleteGossipWorks(t *testing.T) {
	// The complete graph must be usable by the phone-call primitives.
	g := Complete(64)
	rng := xrand.New(1)
	counts := map[int32]int{}
	for i := 0; i < 6300; i++ {
		counts[g.RandomNeighbor(0, rng)]++
	}
	if counts[0] != 0 {
		t.Error("dialed self on complete graph")
	}
	if len(counts) != 63 {
		t.Errorf("only %d distinct neighbors dialed", len(counts))
	}
}

// storedComplete is K_n as Complete once stored it: FromEdges over every
// pair u < v, row-major, which gives every row in ascending order.
func storedComplete(n int) *Graph {
	var edges []Edge
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			edges = append(edges, Edge{U: u, V: v})
		}
	}
	return FromEdges(n, edges)
}

// TestCompleteMatchesStoredCSR requires the implicit K_n to answer like the
// stored one: the same draws on identical streams, through the rejection
// loop and through RandomNeighborAvoid's exact fallback scan, and the same
// degrees, edge count and neighbour sets. ErdosRenyi at p = 1 is the same
// graph and leaves its stream alone.
func TestCompleteMatchesStoredCSR(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 64, 256} {
		got, want := Complete(n), storedComplete(n)
		if err := got.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.N() != n || !sameRows(got, want) {
			t.Fatalf("n=%d: n, m, degrees or rows differ from the stored K_n", n)
		}
		rng := xrand.New(uint64(n) + 1)
		if er := ErdosRenyi(n, 1, rng); !reflect.DeepEqual(er, got) || *rng != *xrand.New(uint64(n) + 1) {
			t.Fatalf("n=%d: ErdosRenyi(n, 1) is not Complete(n) or moved the stream", n)
		}
		gotRNG, wantRNG := xrand.New(uint64(n)), xrand.New(uint64(n))
		for v := int32(0); int(v) < n; v++ {
			if a, b := slices.Sorted(slices.Values(got.Neighbors(v))), want.Neighbors(v); !slices.Equal(a, b) {
				t.Fatalf("n=%d: Neighbors(%d) = %v as a set, want %v", n, v, a, b)
			}
			// All neighbours but v±1 avoided forces the fallback scan
			// whenever 32 draws miss both, and the scan must pick between
			// them in ascending order; all avoided is its empty case.
			most := slices.DeleteFunc(slices.Clone(want.Neighbors(v)), func(u int32) bool {
				return int(u) == (int(v)+1)%n || int(u) == (int(v)+n-1)%n
			})
			for range 4 {
				for _, avoid := range [][]int32{nil, {0, int32(n - 1)}, most, want.Neighbors(v)} {
					if a, b := got.RandomNeighborAvoid(v, gotRNG, avoid), want.RandomNeighborAvoid(v, wantRNG, avoid); a != b {
						t.Fatalf("n=%d v=%d, %d avoided: RandomNeighborAvoid %d, want %d", n, v, len(avoid), a, b)
					}
				}
				if a, b := got.RandomNeighbor(v, gotRNG), want.RandomNeighbor(v, wantRNG); a != b {
					t.Fatalf("n=%d v=%d: RandomNeighbor %d, want %d", n, v, a, b)
				}
			}
		}
		if *gotRNG != *wantRNG {
			t.Fatalf("n=%d: streams diverged", n)
		}
	}
}

// hypercube is the d-dimensional hypercube on 2^d nodes, one of the
// bounded-degree classes of Feige et al. [23] the related work discusses.
func hypercube(d int) *Graph {
	var edges []Edge
	for v := 0; v < 1<<d; v++ {
		for i := 0; i < d; i++ {
			if u := v ^ 1<<i; u > v {
				edges = append(edges, Edge{U: int32(v), V: int32(u)})
			}
		}
	}
	return FromEdges(1<<d, edges)
}

func TestHypercube(t *testing.T) {
	g := hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d", g.N(), g.M())
	}
	for v := int32(0); v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Errorf("Q4 degree(%d) = %d", v, g.Degree(v))
		}
	}
	// Neighbors differ in exactly one bit.
	for v := int32(0); v < 16; v++ {
		for _, u := range g.Neighbors(v) {
			x := v ^ u
			if x&(x-1) != 0 {
				t.Errorf("non-hypercube edge %d-%d", v, u)
			}
		}
	}
	// Diameter 4: the antipode 15 is the one node 4 hops from 0.
	for v, d := range BFS(g, 0) {
		if want := int32(bits.OnesCount(uint(v))); d != want {
			t.Errorf("Q4 dist(0, %d) = %d, want %d", v, d, want)
		}
	}
	if g := hypercube(0); g.N() != 1 {
		t.Error("Q0 wrong")
	}
}
