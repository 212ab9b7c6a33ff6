// Package graph provides the communication-network substrate of the
// simulations: compressed sparse row (CSR) undirected graphs, the random
// graph generators the paper evaluates on (Erdős–Rényi G(n,p) and the
// configuration model), a Chung–Lu power-law generator (the extension the
// paper's reference [1] suggests), and the analysis tools used to validate
// model assumptions (connectivity, degree concentration, spectral gap).
//
// Generators are pure functions of their parameters and the stream they are
// handed. ErdosRenyi's contract is the strictest, because every archived
// G(n,p) run depends on it: one Uint64 per geometric skip, the stream left
// where the scalar row-major walk leaves it, and adjacency lists sorted
// ascending. It builds its CSR in place in two phases (upper neighbours
// during the walk, lower ones scattered after the prefix sum) rather than
// through an edge list and FromEdges, which the other generators use.
// RandomRegular's is one rng.Shuffle(n·d) of the stubs per pairing it draws,
// kept or rejected: up to 40 tries and, above d ≈ 5 always, an erased 41st;
// a rejected try's drain is checked on a second goroutine, not skipped.
package graph

import (
	"fmt"
	"slices"

	"gossip/internal/xrand"
)

// Graph is an undirected multigraph in CSR form. Each undirected edge
// {u, v} contributes an entry v in u's adjacency list and an entry u in
// v's; a self-loop {u, u} contributes two entries u in u's list (one per
// stub), matching the configuration-model semantics where a node dialing a
// uniformly random incident stub may dial its own loop.
type Graph struct {
	n   int
	off []int64 // len n+1; adjacency of v is adj[off[v]:off[v+1]]
	adj []int32
}

// Edge is an undirected edge; U <= V is not required but generators emit
// U <= V for determinism.
type Edge struct{ U, V int32 }

// FromEdges builds a Graph on n nodes from an edge list. Duplicate edges
// produce parallel adjacency entries (multigraph semantics).
func FromEdges(n int, edges []Edge) *Graph {
	deg := make([]int64, n+1)
	for _, e := range edges {
		if e.U == e.V {
			deg[e.U+1] += 2
		} else {
			deg[e.U+1]++
			deg[e.V+1]++
		}
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	off := deg
	adj := make([]int32, off[n])
	cursor := make([]int64, n)
	for _, e := range edges {
		adj[off[e.U]+cursor[e.U]] = e.V
		cursor[e.U]++
		adj[off[e.V]+cursor[e.V]] = e.U
		cursor[e.V]++
	}
	return &Graph{n: n, off: off, adj: adj}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges (self-loops count once).
func (g *Graph) M() int64 { return int64(len(g.adj)) / 2 }

// Degree returns the degree of v (self-loops contribute 2, as usual for
// multigraphs and for stub-based dialing).
func (g *Graph) Degree(v int32) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns v's adjacency slice. The slice aliases internal
// storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.off[v]:g.off[v+1]]
}

// RandomNeighbor returns a uniformly random incident stub's other endpoint,
// or -1 if v is isolated. This is exactly the "open a channel to a randomly
// chosen neighbor" primitive of the random phone call model.
func (g *Graph) RandomNeighbor(v int32, rng *xrand.RNG) int32 {
	d := g.off[v+1] - g.off[v]
	if d == 0 {
		return -1
	}
	return g.adj[g.off[v]+int64(rng.Uint64n(uint64(d)))]
}

// RandomNeighborAvoid returns a uniformly random neighbor of v that is not
// in avoid (the open-avoid primitive of the memory model, §4 of the paper:
// "calling on a neighbor chosen uniformly at random from N(v) \ l_v").
// If every neighbor is in avoid, or v is isolated, it returns -1.
//
// Implementation: rejection sampling (avoid has at most a handful of
// entries, so rejection is cheap on the Ω(log²⁺ᵉ n)-degree graphs the model
// assumes), with an exact fallback scan to stay correct on adversarially
// small test graphs.
func (g *Graph) RandomNeighborAvoid(v int32, rng *xrand.RNG, avoid []int32) int32 {
	d := g.off[v+1] - g.off[v]
	if d == 0 {
		return -1
	}
	const maxAttempts = 32
	for attempt := 0; attempt < maxAttempts; attempt++ {
		u := g.adj[g.off[v]+int64(rng.Uint64n(uint64(d)))]
		if !contains(avoid, u) {
			return u
		}
	}
	// Exact fallback: uniform over the non-avoided adjacency entries.
	cnt := 0
	for _, u := range g.Neighbors(v) {
		if !contains(avoid, u) {
			cnt++
		}
	}
	if cnt == 0 {
		return -1
	}
	k := rng.Intn(cnt)
	for _, u := range g.Neighbors(v) {
		if !contains(avoid, u) {
			if k == 0 {
				return u
			}
			k--
		}
	}
	panic("graph: unreachable in RandomNeighborAvoid")
}

func contains(xs []int32, x int32) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// Validate checks CSR structural invariants (offsets monotone, endpoints in
// range, adjacency symmetric as a multiset). It is O(n + m log m)-ish and
// intended for tests.
func (g *Graph) Validate() error {
	if len(g.off) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d for n=%d", len(g.off), g.n)
	}
	if g.off[0] != 0 || g.off[g.n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: offset endpoints corrupt")
	}
	for v := 0; v < g.n; v++ {
		if g.off[v] > g.off[v+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	// Encode every directed entry v->u as v<<32|u. Swapping the halves is
	// an involution on the key space, so the adjacency is symmetric as a
	// multiset — count(v,u) == count(u,v) for every pair — exactly when
	// the sorted key list equals its sorted swapped image. Two sorts and
	// a linear compare replace the O(m)-entry count map.
	fwd := make([]uint64, 0, len(g.adj))
	for v := int32(0); int(v) < g.n; v++ {
		for _, u := range g.Neighbors(v) {
			if u < 0 || int(u) >= g.n {
				return fmt.Errorf("graph: endpoint %d out of range", u)
			}
			fwd = append(fwd, uint64(uint32(v))<<32|uint64(uint32(u)))
		}
	}
	rev := make([]uint64, len(fwd))
	for i, k := range fwd {
		rev[i] = k<<32 | k>>32
	}
	slices.Sort(fwd)
	slices.Sort(rev)
	if slices.Equal(fwd, rev) {
		return nil
	}
	// Re-walk the adjacency in vertex order so the first offending pair
	// reported is deterministic, counting by binary search in the sorted
	// keys.
	for v := int32(0); int(v) < g.n; v++ {
		for _, u := range g.Neighbors(v) {
			k := uint64(uint32(v))<<32 | uint64(uint32(u))
			if sortedCount(fwd, k) != sortedCount(fwd, k<<32|k>>32) {
				return fmt.Errorf("graph: asymmetric adjacency %v", [2]int32{v, u})
			}
		}
	}
	return fmt.Errorf("graph: asymmetric adjacency")
}

// sortedCount returns the multiplicity of k in the ascending slice keys.
func sortedCount(keys []uint64, k uint64) int {
	lo, _ := slices.BinarySearch(keys, k)
	hi, _ := slices.BinarySearch(keys, k+1)
	return hi - lo
}
