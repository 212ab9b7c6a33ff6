package graph

import (
	"cmp"
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
// costs one Uint64 per skip, m + n - 1 in all, and rng is left exactly
// where that scalar walk leaves it. At p = 1 every skip is 0 without a
// draw, so the result is Complete(n) and rng is not touched. Only the
// schedule differs:
// the words are drawn in blocks and turned into skips under par.For
// (xrand.GeometricSkips), and the draws a last block made beyond the end of
// the walk are given back.
//
// The graph is built in place in two phases. The walk appends each row's
// upper neighbours (v > u, ascending) to adj. On every core the lower
// degrees are counted; after the prefix sum every upper block moves up to
// the tail of its final row, last row first (a destination is never below
// its source), and on every core u is written into the head of each upper
// neighbour's row. A core takes destination rows holding about as many
// entries as the others' and scans the upper blocks in ascending u, so it
// writes only its own rows, each in ascending u: adjacency lists come out
// sorted ascending, the layout FromEdges gives the same edge list.
func ErdosRenyi(n int, p float64, rng *xrand.RNG) *Graph {
	if n < 0 {
		panic("graph: negative n")
	}
	if !(p >= 0 && p <= 1) { // in this form NaN fails too
		panic("graph: p out of [0,1]")
	}
	if p == 1 {
		return Complete(n)
	}
	if p == 0 || n < 2 {
		off, adj, _ := storage(n, 0)
		return &Graph{n: n, off: off, adj: adj}
	}
	mean := p * float64(n) * float64(n-1) / 2
	// Final capacity, both directions, with 8σ of room; append copes beyond.
	off, adj, _ := storage(n, 2*(int(mean+8*math.Sqrt(mean*(1-p)))+16))
	adj = adj[:0]
	up := make([]int32, n) // u's upper degree
	// A block holds the expected draws left at (u, v), p per pair ahead plus
	// one overshoot per row, and a margin, so that small graphs and the last
	// block compute few spare logs. That only falls as the walk advances, so
	// the first block sizes the buffer.
	block := func(u, v int) int {
		rows := float64(n - 1 - u)
		return min(erBlock, int(1.1*(p*(float64(n-1-v)+rows*(rows-1)/2)+rows))+16)
	}
	buf := make([]uint64, block(0, 0))
	for u, v, row := 0, 0, 0; u < n-1; {
		blk := buf[:block(u, v)]
		start := *rng
		for i := range blk {
			blk[i] = rng.Uint64()
		}
		par.For(len(blk), func(lo, hi int) { xrand.GeometricSkips(blk[lo:hi], p) })
		for i, skip := range blk {
			if v += 1 + int(skip); v < n {
				adj = append(adj, int32(v))
				continue
			}
			up[u] = int32(len(adj) - row)
			row = len(adj)
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
	// Row v's lower degree is about p·v, so the rows [√(lo·n), √(hi·n))
	// of a par.For chunk [lo, hi) hold about as many entries as another's.
	sq := func(x int) int { return int(math.Round(math.Sqrt(float64(x) * float64(n)))) }
	par.For(n, func(lo, hi int) {
		a, b := sq(lo), sq(hi)
		for u, s := 0, 0; u < b-1; u++ { // u's upper block is still adj[s:s+up[u]]
			for _, v := range within(adj[s:s+int(up[u])], a, b) {
				off[v+1]++
			}
			s += int(up[u])
		}
	})
	for u := 0; u < n; u++ { // off[u+1] holds u's lower degree; add the upper
		off[u+1] += off[u] + int64(up[u])
	}
	for u, s := n-1, int64(m); u > 0; u-- { // row 0 has no lower half and is in place
		s -= int64(up[u])
		copy(adj[off[u+1]-int64(up[u]):off[u+1]], adj[s:s+int64(up[u])])
	}
	// A par.For chunk [lo, hi) of the 2m + n entries and rows takes the
	// rows v with off[v] + v in it.
	row := func(x int) int { return sort.Search(n, func(v int) bool { return int(off[v])+v >= x }) }
	filled := make([]int32, n) // the entries of v's lower half written so far
	par.For(2*m+n, func(lo, hi int) {
		a, b := row(lo), row(hi)
		for u := 0; u < b-1; u++ {
			for _, v := range within(adj[off[u+1]-int64(up[u]):off[u+1]], a, b) {
				adj[off[v]+int64(filled[v])] = int32(u)
				filled[v]++
			}
		}
	})
	return &Graph{n: n, off: off, adj: adj}
}

// within returns the entries of the ascending block blk that lie in [a, b).
func within(blk []int32, a, b int) []int32 {
	lo, _ := slices.BinarySearch(blk, int32(a))
	hi, _ := slices.BinarySearch(blk[lo:], int32(b))
	return blk[lo : lo+hi]
}

// ConfigurationModel samples a d-regular multigraph on n nodes from the
// pairing (configuration) model of Bollobás/Wormald (§2 of the paper): n·d
// stubs, d to a node, and a uniformly random perfect matching of them. n·d
// must be even. Self-loops and parallel edges are kept, as in the model the
// paper analyzes, so every degree is exactly d, a loop counting 2; §2 notes
// that there are O(d²) of them w.h.p., which the tests assert. They are not
// counted here: that takes a sort of the n·d/2 edges, several times the
// cost of the build.
//
// Draw contract: one rng.Shuffle(n·d) over the stubs laid out node-major;
// stubs 2k and 2k+1 are then edge k, in that order in FromEdges. The CSR
// is written straight from the stubs: every row has d entries, so v's
// starts at v·d, and scattering the pairs in order gives FromEdges' layout.
func ConfigurationModel(n, d int, rng *xrand.RNG) *Graph {
	if n < 0 || d < 0 || n*d%2 != 0 {
		panic("graph: the configuration model needs n, d >= 0 and n*d even")
	}
	stubs := make([]int32, n*d)
	off, adj, reused := storage(n, n*d) // off[v+1] is v's cursor, from v·d up to (v+1)·d
	for v := range n {
		off[v+1] = int64(v * d)
		for k := v * d; k < v*d+d; k++ {
			stubs[k] = int32(v)
		}
	}
	for i := len(stubs) - 1; i > 0; i-- { // rng.Shuffle, without its swap closure
		j := rng.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		adj[off[u+1]] = v
		off[u+1]++
		adj[off[v+1]] = u
		off[v+1]++
	}
	if reused { // where graphs are released, stubs live on until Release replaces them:
		swap(nil, stubs) // dropped here, a cell's end held them or not as the collector ran
	}
	return &Graph{n: n, off: off, adj: adj}
}

// ChungLu samples a graph where edge {u,v} (u != v) appears independently
// with probability min(1, w_u·w_v / S), S = Σw. With power-law weights this
// is the random power-law model of Aiello–Chung–Lu (reference [1] of the
// paper). Weights must be non-negative. Runs in O(n + m) expected time for
// sorted weights via bounded geometric skipping.
func ChungLu(weights []float64, rng *xrand.RNG) *Graph {
	n := len(weights)
	var s, s2 float64
	for _, w := range weights {
		if w < 0 {
			panic("graph: negative Chung-Lu weight")
		}
		s, s2 = s+w, s2+w*w
	}
	// Sort node ids by descending weight so that within a row the edge
	// probability is non-increasing and skip sampling with a running upper
	// bound is valid.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { // ties by id, for determinism
		return cmp.Or(cmp.Compare(weights[b], weights[a]), cmp.Compare(a, b))
	})
	var edges []Edge
	if s > 0 {
		mean := max(0, s-s2/s) / 2 // Σ_{u<v} w_u·w_v/S ≥ the edge count's mean and variance
		edges = make([]Edge, 0, min(n*(n-1)/2, int(mean+8*math.Sqrt(mean))+16))
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
