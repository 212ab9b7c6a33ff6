package graph

import (
	"cmp"
	"math"
	"slices"

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
	stubs := newStubs(n, d)
	shuffleStubs(stubs, d, rng, nil)
	edges := pairUp(stubs, nil)
	return FromEdges(n, edges), countDefects(edges, make([]uint64, 0, len(edges)))
}

// RandomRegular samples a d-regular graph by rejection over configuration-
// model pairings, the classical exact sampler: the first of up to maxTries
// pairings without loops or multi-edges is returned. One is simple with
// probability ≈ exp(-(d²-1)/4) — 0.14 at d = 3, e⁻²²⁵ at d = 30 — so above
// d ≈ 5 the result is in practice always the erased fallback, the pairing of
// shuffle maxTries+1 with loops dropped and parallels collapsed: simple,
// degrees at most d, and ≈ (d²-1)/4 edges short or more (at n = 2048,
// d = 242 it keeps ≈ 233.7 k of 247.8 k, 5.7 % erased).
//
// Draw contract: every try and the fallback consume exactly one
// rng.Shuffle(n·d) over the node-major stubs, so graph and stream position
// are those of rejecting over whole ConfigurationModel calls. A try that
// closes a self-loop at step i stops there, and the i-1 draws the rest owes
// are checked, not skipped: from jumpMin up, rng jumps over them as i-1
// Uint64 (xrand.Advance) while a second goroutine, and the caller once done,
// re-walk the stretch with SkipShuffle. If a walk ends elsewhere (a Lemire
// redraw, below n·d·2⁻⁶⁴ a draw), the tries after it rerun from the walked
// state, so the result never depends on scheduling. The walks still cost
// their CPU: a build is faster only while a core is idle (a one-worker sweep,
// a single run: ≈ −35 % wall), and costs the same when every core is busy (a
// sweep at default workers). Edge and key buffers appear with the first
// loop-free try and are reused.
func RandomRegular(n, d int, rng *xrand.RNG) *Graph {
	return randomRegular(n, d, rng, func(_ int, walked, advanced *xrand.RNG) bool { return *walked != *advanced })
}

const maxTries, jumpMin = 40, 1 << 12

// stretch is a rejected try's rest, steps draws from at: Advance jumps rng
// to to, and the check walks at to where the draws really end.
type stretch struct {
	try, steps int
	at, to     xrand.RNG
}

// randomRegular is RandomRegular with a seam: redrawn(j, …) reports whether
// stretch j's walk contradicts its jump.
func randomRegular(n, d int, rng *xrand.RNG, redrawn func(j int, walked, advanced *xrand.RNG) bool) *Graph {
	stubs := newStubs(n, d)
	var stretches []stretch // capacity maxTries, so append never moves a queued stretch
	var todo chan *stretch
	var done chan struct{}
	check := func() {
		for s := range todo {
			s.at.SkipShuffle(s.steps)
		}
	}
	g := regularTries(n, d, 0, stubs, rng, func(try, steps int) {
		if steps < jumpMin {
			rng.SkipShuffle(steps)
			return
		}
		if todo == nil { // the first stretch starts the checker
			stretches, todo, done = make([]stretch, 0, maxTries), make(chan *stretch, maxTries), make(chan struct{})
			go func() { check(); close(done) }()
		}
		at := *rng
		rng.Advance(uint64(steps - 1))
		stretches = append(stretches, stretch{try, steps, at, *rng})
		todo <- &stretches[len(stretches)-1]
	})
	if todo == nil {
		return g
	}
	close(todo)
	check()
	<-done
	for j, s := range stretches {
		if redrawn(j, &s.at, &s.to) {
			*rng = s.at
			return regularTries(n, d, s.try+1, stubs, rng, func(_, steps int) { rng.SkipShuffle(steps) })
		}
	}
	return g
}

// regularTries runs RandomRegular's tries first..maxTries-1 and then its
// fallback; skip settles the draws a try rejected at step i still owes.
func regularTries(n, d, first int, stubs []int32, rng *xrand.RNG, skip func(try, i int)) *Graph {
	var edges []Edge
	var keys []uint64
	for try := first; try < maxTries; try++ {
		if shuffleStubs(stubs, d, rng, func(i int) { skip(try, i) }) {
			edges, keys = pairUp(stubs, edges), slices.Grow(keys, len(stubs)/2)
			if countDefects(edges, keys) == (ConfigStats{}) {
				return FromEdges(n, edges)
			}
		}
	}
	shuffleStubs(stubs, d, rng, nil)
	return Simplify(FromEdges(n, pairUp(stubs, edges)))
}

// newStubs checks the pairing model's parameters and allocates its stubs.
func newStubs(n, d int) []int32 {
	if n < 0 || d < 0 || n*d%2 != 0 {
		panic("graph: the configuration model needs n, d >= 0 and n*d even")
	}
	return make([]int32, n*d)
}

// shuffleStubs lays the stubs out node-major, d to a node, and runs
// rng.Shuffle over them: stubs 2k and 2k+1 are then pair k of a uniformly
// random perfect matching. Fisher–Yates fixes position i at step i, top
// down, so pair i/2 is final after an even step. Given skip, the first
// such pair that is a self-loop ends the swapping, skip(i) settles the
// draws the rest of the shuffle owes, and the result is false; pair 0,
// final only after the last step, is left to countDefects.
func shuffleStubs(stubs []int32, d int, rng *xrand.RNG, skip func(i int)) bool {
	for v := 0; v*d < len(stubs); v++ {
		row := stubs[v*d : v*d+d]
		for k := range row {
			row[k] = int32(v)
		}
	}
	for i := len(stubs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
		if skip != nil && i&1 == 0 && stubs[i] == stubs[i+1] {
			skip(i)
			return false
		}
	}
	return true
}

// pairUp reads the pairing off shuffled stubs into edges, grown to fit.
func pairUp(stubs []int32, edges []Edge) []Edge {
	edges = slices.Grow(edges[:0], len(stubs)/2)[:len(stubs)/2]
	for i := range edges {
		edges[i] = Edge{U: stubs[2*i], V: stubs[2*i+1]}
	}
	return edges
}

// countDefects counts a pairing's self-loops and its surplus parallel
// edges. One key per other edge is sorted into keys[:0], the caller's
// scratch, so that parallels are adjacent: c equal keys contribute c-1.
func countDefects(edges []Edge, keys []uint64) ConfigStats {
	var st ConfigStats
	keys = keys[:0]
	for _, e := range edges {
		if e.U == e.V {
			st.SelfLoops++
			continue
		}
		u, v := min(e.U, e.V), max(e.U, e.V)
		keys = append(keys, uint64(uint32(u))<<32|uint64(uint32(v)))
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			st.MultiEdges++
		}
	}
	return st
}

// Simplify returns a copy of g with self-loops removed and parallel edges
// collapsed, each edge {u, v}, u < v, taken where u first appears in v's list.
func Simplify(g *Graph) *Graph {
	edges := make([]Edge, 0, g.M())
	last := make([]int32, g.N()) // last[u] = v once {u, v} is kept; u < v, so never 0
	for v := int32(0); int(v) < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if u < v && last[u] != v {
				last[u] = v
				edges = append(edges, Edge{U: u, V: v})
			}
		}
	}
	return FromEdges(g.N(), edges)
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
	slices.SortFunc(order, func(a, b int32) int { // ties by id, for determinism
		return cmp.Or(cmp.Compare(weights[b], weights[a]), cmp.Compare(a, b))
	})
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
