package graph

import (
	"math"
	"slices"
	"sort"

	"gossip/internal/par"
	"gossip/internal/xrand"
)

// Log2 is the paper's logarithm: log n denotes log base 2 (§1, footnote 1).
func Log2(x float64) float64 { return math.Log2(x) }

// PLogSquared returns the edge probability p = log²n / n used throughout
// the paper's empirical section (§5), clamped to 1 on degenerate tiny n.
func PLogSquared(n int) float64 {
	l := Log2(float64(n))
	p := l * l / float64(n)
	if p > 1 {
		return 1
	}
	return p
}

// PLogPow returns p = log^e(n) / n, the density knob of the analysis
// (the theory requires expected degree Ω(log^{2+ε} n)), clamped to 1 — on
// very small n a high exponent saturates at the complete graph.
func PLogPow(n int, e float64) float64 {
	p := math.Pow(Log2(float64(n)), e) / float64(n)
	if p > 1 {
		return 1
	}
	return p
}

// erBlock is how many skips ErdosRenyi draws before it converts them: large
// enough to amortise one par.For, small enough (128 KB) to stay in L2
// between the draw, the logarithms and the walk.
const erBlock = 1 << 14

// ErdosRenyi samples G(n, p): every unordered pair {u, v}, u != v, is an
// edge independently with probability p. The sampler walks the pair space
// row-major with geometric skips, so it runs in O(n + m) expected time
// rather than O(n²).
//
// Draw contract: the walk is the scalar one — for each row u, v starts at u
// and advances by 1 + rng.Geometric(p) until it leaves the row — so it
// costs one Uint64 per skip, m + n - 1 in all (none at p = 1), and rng is
// left exactly where that scalar walk leaves it. Only the schedule differs:
// the words are drawn in blocks and turned into skips under par.For
// (xrand.GeometricSkips), and the draws a last block made beyond the end of
// the walk are given back.
//
// The graph is built in place in two phases. The walk appends each row's
// upper neighbours (v > u, ascending) to adj, marks where the row ends and
// counts lower degrees in off. After the prefix sum over off, every upper
// block moves up to the tail of its final row, last row first (a
// destination is never below its source, so nothing unread is overwritten),
// and one ascending pass over the rows writes u into the head of each upper
// neighbour's row. Adjacency lists therefore come out sorted ascending,
// the layout FromEdges gives the same row-major edge list.
func ErdosRenyi(n int, p float64, rng *xrand.RNG) *Graph {
	if n < 0 {
		panic("graph: negative n")
	}
	if !(p >= 0 && p <= 1) { // in this form NaN fails too
		panic("graph: p out of [0,1]")
	}
	off := make([]int64, n+1)
	if p == 0 || n < 2 {
		return &Graph{n: n, off: off, adj: []int32{}}
	}
	if p == 1 {
		scratch := *rng // Geometric(1) is 0 without a draw: walk on a copy
		rng = &scratch
	}
	mean := p * float64(n) * float64(n-1) / 2
	// Final capacity, both directions, with 8σ of room; append copes beyond.
	adj := make([]int32, 0, 2*(int(mean+8*math.Sqrt(mean*(1-p)))+16))
	end := make([]int64, n) // adj[:end[u]] holds rows 0..u; later the scatter cursor
	// A block holds the expected draws left at (u, v), p per pair ahead plus
	// one overshoot per row, and a margin, so that small graphs and the last
	// block compute few spare logs. That only falls as the walk advances, so
	// the first block sizes the buffer.
	block := func(u, v int) int {
		rows := float64(n - 1 - u)
		return min(erBlock, int(1.1*(p*(float64(n-1-v)+rows*(rows-1)/2)+rows))+16)
	}
	buf := make([]uint64, block(0, 0))
	for u, v := 0, 0; u < n-1; {
		blk := buf[:block(u, v)]
		start := *rng
		for i := range blk {
			blk[i] = rng.Uint64()
		}
		par.For(len(blk), func(lo, hi int) { xrand.GeometricSkips(blk[lo:hi], p) })
		for i, skip := range blk {
			if v += 1 + int(skip); v < n {
				adj = append(adj, int32(v))
				off[v+1]++
				continue
			}
			end[u] = int64(len(adj))
			u++
			v = u
			if u == n-1 { // done: rewind to the i+1 draws the walk consumed
				*rng = start
				for ; i >= 0; i-- {
					rng.Uint64()
				}
				break
			}
		}
	}
	m := len(adj)
	adj = slices.Grow(adj, m)[:2*m]
	end[n-1] = int64(m)
	prev := int64(0)
	for u := 0; u < n; u++ { // off[u+1] holds u's lower degree; add the upper
		off[u+1] += off[u] + end[u] - prev
		prev = end[u]
	}
	for u := n - 1; u > 0; u-- { // row 0 has no lower half and is in place
		copy(adj[off[u+1]-(end[u]-end[u-1]):off[u+1]], adj[end[u-1]:end[u]])
		end[u] = off[u]
	}
	end[0] = 0
	for u := 0; u < n-1; u++ { // end[u] has reached u's upper block by now
		for _, v := range adj[end[u]:off[u+1]] {
			adj[end[v]] = int32(u)
			end[v]++
		}
	}
	return &Graph{n: n, off: off, adj: adj}
}

// ConfigStats reports the defect edges of a configuration-model pairing.
// The paper (§2) notes that for the degrees considered the number of loops
// and multi-edges is constant with high probability; tests assert this.
type ConfigStats struct {
	SelfLoops  int
	MultiEdges int // surplus parallel edges (a triple edge counts 2)
}

// ConfigurationModel samples a d-regular multigraph on n nodes from the
// pairing (configuration) model of Bollobás/Wormald (§2 of the paper):
// d·n stubs, a uniformly random perfect matching of the stubs. n·d must be
// even. Self-loops and multi-edges are kept — the model the paper analyzes
// keeps them too — and reported in stats.
func ConfigurationModel(n, d int, rng *xrand.RNG) (*Graph, ConfigStats) {
	if n < 0 || d < 0 {
		panic("graph: negative configuration-model parameter")
	}
	if n*d%2 != 0 {
		panic("graph: n*d must be even in the configuration model")
	}
	stubs := make([]int32, n*d)
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			stubs[v*d+k] = int32(v)
		}
	}
	// A uniformly random permutation paired off consecutively is a uniformly
	// random perfect matching of the stubs.
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	edges := make([]Edge, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		edges = append(edges, Edge{U: stubs[i], V: stubs[i+1]})
	}
	g := FromEdges(n, edges)
	return g, countDefects(edges)
}

// RandomRegular samples a simple d-regular graph by re-drawing
// configuration-model pairings until one has no loops or multi-edges
// (rejection is the classical exact sampler; acceptance probability is
// bounded away from 0 for d = O(√log n), and for larger d we fall back to
// local repair — erased configuration model — which the analysis also
// tolerates since only O(1) edges differ w.h.p.). maxTries bounds the
// rejection phase.
// The rejection loop reuses one stub buffer, one edge buffer, and one
// defect-scan scratch slice across all tries, and builds the CSR graph
// only for the accepted pairing. Each try consumes exactly one
// Shuffle(n·d) from rng — the same draws ConfigurationModel would make —
// so the sampled graph is bit-identical to rejecting over full
// ConfigurationModel calls.
func RandomRegular(n, d int, rng *xrand.RNG) *Graph {
	if n < 0 || d < 0 {
		panic("graph: negative configuration-model parameter")
	}
	if n*d%2 != 0 {
		panic("graph: n*d must be even in the configuration model")
	}
	const maxTries = 40
	stubs := make([]int32, n*d)
	edges := make([]Edge, len(stubs)/2)
	keys := make([]uint64, 0, len(edges))
	for try := 0; try < maxTries; try++ {
		for v := 0; v < n; v++ {
			for k := 0; k < d; k++ {
				stubs[v*d+k] = int32(v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		for i := range edges {
			edges[i] = Edge{U: stubs[2*i], V: stubs[2*i+1]}
		}
		if pairingIsSimple(edges, keys) {
			return FromEdges(n, edges)
		}
	}
	// Erased fallback: drop loops, collapse parallels.
	g, _ := ConfigurationModel(n, d, rng)
	return Simplify(g)
}

// pairingIsSimple reports whether a stub pairing has no self-loops and no
// parallel edges. keys is caller-provided scratch (resliced to zero
// length) so the rejection loop in RandomRegular allocates nothing per
// try.
func pairingIsSimple(edges []Edge, keys []uint64) bool {
	keys = keys[:0]
	for _, e := range edges {
		if e.U == e.V {
			return false
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		keys = append(keys, uint64(uint32(u))<<32|uint64(uint32(v)))
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return false
		}
	}
	return true
}

// Simplify returns a copy of g with self-loops removed and parallel edges
// collapsed.
func Simplify(g *Graph) *Graph {
	var edges []Edge
	seen := make(map[[2]int32]bool)
	for v := int32(0); int(v) < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if u <= v { // keep each undirected edge once, drop loops (u==v)
				if u == v {
					continue
				}
				key := [2]int32{u, v}
				if !seen[key] {
					seen[key] = true
					edges = append(edges, Edge{U: u, V: v})
				}
			}
		}
	}
	return FromEdges(g.N(), edges)
}

func countDefects(edges []Edge) ConfigStats {
	var st ConfigStats
	keys := make([]uint64, 0, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			st.SelfLoops++
			continue
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		keys = append(keys, uint64(uint32(u))<<32|uint64(uint32(v)))
	}
	// Sorted adjacent-duplicate scan: a run of c equal keys contributes
	// c-1 surplus edges, exactly the map-based count it replaces.
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			st.MultiEdges++
		}
	}
	return st
}

// ChungLu samples a graph where edge {u,v} (u != v) appears independently
// with probability min(1, w_u·w_v / S), S = Σw. With power-law weights this
// is the random power-law model of Aiello–Chung–Lu (reference [1] of the
// paper). Weights must be non-negative. Runs in O(n + m) expected time for
// sorted weights via bounded geometric skipping.
func ChungLu(weights []float64, rng *xrand.RNG) *Graph {
	n := len(weights)
	var s float64
	for _, w := range weights {
		if w < 0 {
			panic("graph: negative Chung-Lu weight")
		}
		s += w
	}
	// Sort node ids by descending weight so that within a row the edge
	// probability is non-increasing and skip sampling with a running upper
	// bound is valid.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	insertionSortByWeightDesc(order, weights)
	var edges []Edge
	if s > 0 {
		for i := 0; i < n-1; i++ {
			wu := weights[order[i]]
			if wu == 0 {
				break
			}
			j := i
			q := math.Min(1, wu*weights[order[i+1]]/s)
			for j < n-1 && q > 0 {
				j += 1 + rng.Geometric(q)
				if j >= n {
					break
				}
				p := math.Min(1, wu*weights[order[j]]/s)
				if rng.Float64() < p/q {
					edges = append(edges, Edge{U: order[i], V: order[j]})
				}
				q = p
			}
		}
	}
	return FromEdges(n, edges)
}

// insertionSortByWeightDesc sorts ids by descending weight (ties broken by
// id for determinism).
func insertionSortByWeightDesc(ids []int32, w []float64) {
	sort.Slice(ids, func(a, b int) bool {
		if w[ids[a]] != w[ids[b]] {
			return w[ids[a]] > w[ids[b]]
		}
		return ids[a] < ids[b]
	})
}

// PowerLawWeights returns n weights following a power law with the given
// exponent beta > 1: w_i = wmin · ((n)/(i+1))^(1/(beta-1)). Used to feed
// ChungLu.
func PowerLawWeights(n int, beta, wmin float64) []float64 {
	if beta <= 1 {
		panic("graph: power-law exponent must exceed 1")
	}
	w := make([]float64, n)
	inv := 1 / (beta - 1)
	for i := range w {
		w[i] = wmin * math.Pow(float64(n)/float64(i+1), inv)
	}
	return w
}
