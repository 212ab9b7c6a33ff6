// Package graph provides the communication-network substrate of the
// simulations: undirected graphs, stored in compressed sparse row (CSR)
// form except the complete graph K_n, which is implicit in O(n) memory;
// the random graph generators the paper evaluates on (Erdős–Rényi G(n,p)
// and the configuration model), a Chung–Lu power-law generator (the
// extension the paper's reference [1] suggests), and the analysis tools
// used to validate model assumptions (connectivity, degree concentration).
//
// Generators are pure functions of their parameters and the stream they are
// handed. ErdosRenyi's contract is the strictest, because every archived
// G(n,p) run depends on it: one Uint64 per geometric skip, the stream left
// where the scalar row-major walk leaves it, and adjacency lists sorted
// ascending. It builds its CSR in place in two phases (upper neighbours
// during the walk, lower ones counted and scattered on every core after
// it) rather than through an edge list and FromEdges, which ChungLu uses;
// at p = 1 it is Complete. ConfigurationModel, the random d-regular model
// of the paper's §2 and of every `regular` cell, draws one
// rng.Shuffle(n·d) of the stubs, scatters the pairs straight into CSR and
// keeps the pairing whole: loops and parallel edges stay, every degree is
// exactly d (a loop counts 2), and the defects are not counted.
//
// Storage passes from one graph to the next: Release puts a graph's CSR
// in a single spare slot, and every generator empties the slot when it
// starts, building in the spare when it is big enough (Complete drops it).
// So a sweep worker that releases each cell's graph (runner.Execute)
// holds one graph, not two. A released graph's accessors panic.
package graph

import (
	"fmt"
	"slices"
	"sync"

	"gossip/internal/xrand"
)

// Graph is an undirected multigraph. Each undirected edge {u, v}
// contributes an entry v in u's adjacency list and an entry u in v's; a
// self-loop {u, u} contributes two entries u in u's list (one per stub),
// matching the configuration-model semantics where a node dialing a
// uniformly random incident stub may dial its own loop.
//
// Every graph but K_n is stored in CSR form. K_n (Complete) has off nil
// and adj the ring 0, 1, …, n-1, 0, 1, …, n-2 of 2n-1 ids: v's neighbours
// are the window adj[v+1 : v+n], and its k-th neighbour in ascending order
// is k, or k+1 from k = v on, computed rather than stored.
type Graph struct {
	n   int
	off []int64 // len n+1; adjacency of v is adj[off[v]:off[v+1]]; nil on K_n
	adj []int32
}

// Edge is an undirected edge; U <= V is not required but generators emit
// U <= V for determinism.
type Edge struct{ U, V int32 }

// spare is the storage of the last released graph, or a build's stubs,
// kept for the next build: one slot, so it never outlives that build.
var spare struct {
	sync.Mutex
	off []int64
	adj []int32
}

// Release hands g's storage to the next graph a generator builds and
// poisons g: n is 0 and off empty, so Degree, Neighbor, Neighbors and
// RandomNeighbor panic and Validate fails. Call it once, when nothing
// reads g or a slice of it any more.
func (g *Graph) Release() {
	swap(g.off, g.adj)
	*g = Graph{off: []int64{}}
}

// swap puts off and adj in the spare slot and returns what it held.
func swap(off []int64, adj []int32) ([]int64, []int32) {
	spare.Lock()
	defer spare.Unlock()
	spare.off, off, spare.adj, adj = off, spare.off, adj, spare.adj
	return off, adj
}

// storage returns n+1 zero offsets and an adjacency of length m, in the
// spare's storage where its capacity suffices; a spare too small is
// dropped. reused says whether adj is the spare's. The adjacency is not
// cleared: the caller writes every entry.
func storage(n, m int) (off []int64, adj []int32, reused bool) {
	off, adj = swap(nil, nil)
	if cap(off) <= n {
		off = make([]int64, n+1)
	}
	if reused = adj != nil && cap(adj) >= m; !reused { // an empty graph's adj is non-nil too
		adj = make([]int32, m)
	}
	clear(off[:n+1])
	return off[:n+1], adj[:m], reused
}

// FromEdges builds a Graph on n nodes from an edge list. Duplicate edges
// produce parallel adjacency entries (multigraph semantics).
func FromEdges(n int, edges []Edge) *Graph {
	off, adj, _ := storage(n, 2*len(edges)) // off: v's degree, then its row's end, then its start
	for _, e := range edges {
		off[e.U]++
		off[e.V]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	for i := len(edges) - 1; i >= 0; i-- { // rows fill from the back, so edges in reverse
		e := edges[i]
		off[e.V]--
		adj[off[e.V]] = e.U
		off[e.U]--
		adj[off[e.U]] = e.V
	}
	return &Graph{n: n, off: off, adj: adj}
}

// Complete returns the complete graph K_n. The paper's baseline results
// ([5], [34]) are proven on complete graphs; the ablation experiments use
// K_n to show that gossiping behaves the same there as on sparse random
// graphs (the paper's central message). K_n is implicit (see Graph): it
// stores the ring of 2n-1 ids and nothing else, so it costs 8n bytes at
// any n, and its draws are those of the stored CSR with ascending rows.
func Complete(n int) *Graph {
	if n < 0 {
		panic("graph: negative n")
	}
	swap(nil, nil) // K_n keeps no CSR, so the spare is dropped
	return &Graph{n: n, adj: ring(n)}
}

// ring returns K_n's adjacency: 0, 1, …, n-1, 0, 1, …, n-2.
func ring(n int) []int32 {
	r := make([]int32, max(2*n-1, 0))
	for i := range r {
		r[i] = int32(i % n)
	}
	return r
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges (self-loops count once).
func (g *Graph) M() int64 {
	if g.off == nil {
		return int64(g.n) * int64(g.n-1) / 2
	}
	return int64(len(g.adj)) / 2
}

// Degree returns the degree of v (self-loops contribute 2, as usual for
// multigraphs and for stub-based dialing).
func (g *Graph) Degree(v int32) int {
	if g.off == nil {
		return g.n - 1
	}
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns v's adjacency slice. The slice aliases internal
// storage and must not be modified. Its order is the stored one, except on
// K_n: there it is cyclic, v+1, …, n-1, 0, …, v-1, a window of the ring.
func (g *Graph) Neighbors(v int32) []int32 {
	if g.off == nil {
		return g.adj[v+1 : int(v)+g.n]
	}
	return g.adj[g.off[v]:g.off[v+1]]
}

// Neighbor returns the k-th entry of v's row, 0 <= k < Degree(v): the
// stored one, or on K_n the k-th in ascending order, which is the row a
// stored K_n would hold. Every draw of a neighbour goes through it.
func (g *Graph) Neighbor(v int32, k int) int32 {
	if g.off == nil {
		if k >= int(v) {
			k++
		}
		return int32(k)
	}
	return g.adj[g.off[v]+int64(k)]
}

// RandomNeighbor returns a uniformly random incident stub's other endpoint,
// or -1 if v is isolated. This is exactly the "open a channel to a randomly
// chosen neighbor" primitive of the random phone call model.
func (g *Graph) RandomNeighbor(v int32, rng *xrand.RNG) int32 {
	d := g.Degree(v)
	if d == 0 {
		return -1
	}
	return g.Neighbor(v, int(rng.Uint64n(uint64(d))))
}

// AvoidAfter completes the open-avoid draw of the memory model (§4 of the
// paper: "calling on a neighbor chosen uniformly at random from
// N(v) \ l_v") for a non-isolated v whose first uniform draw hit avoid:
// a uniformly random neighbor of v not in avoid, or -1 if every neighbor
// is. phone.Sync makes many first draws before it loads a row.
//
// Implementation: rejection sampling (avoid has at most a handful of
// entries, so rejection is cheap on the Ω(log²⁺ᵉ n)-degree graphs the model
// assumes), with an exact fallback scan to stay correct on adversarially
// small test graphs.
func (g *Graph) AvoidAfter(v int32, rng *xrand.RNG, avoid []int32) int32 {
	d := g.Degree(v)
	const maxAttempts = 32 // counting the caller's first draw
	for range maxAttempts - 1 {
		if u := g.Neighbor(v, int(rng.Uint64n(uint64(d)))); !slices.Contains(avoid, u) {
			return u
		}
	}
	// Exact fallback: uniform over the non-avoided entries, in row order.
	cnt := 0
	for k := range d {
		if !slices.Contains(avoid, g.Neighbor(v, k)) {
			cnt++
		}
	}
	if cnt == 0 {
		return -1
	}
	i := rng.Intn(cnt)
	for k := range d {
		if u := g.Neighbor(v, k); !slices.Contains(avoid, u) {
			if i == 0 {
				return u
			}
			i--
		}
	}
	panic("graph: unreachable in AvoidAfter")
}

// Validate checks CSR structural invariants (offsets monotone, endpoints in
// range, adjacency symmetric as a multiset). It is O(n + m log m)-ish and
// intended for tests. On K_n it checks the ring, all that is stored.
func (g *Graph) Validate() error {
	if g.off == nil {
		if !slices.Equal(g.adj, ring(g.n)) {
			return fmt.Errorf("graph: K_%d ring corrupt", g.n)
		}
		return nil
	}
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
