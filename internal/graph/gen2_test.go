package graph

import (
	"math/bits"
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

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
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
	if g := Hypercube(0); g.N() != 1 {
		t.Error("Q0 wrong")
	}
}
