package graph

// Complete returns the complete graph K_n. The paper's baseline results
// ([5], [34]) are proven on complete graphs; the ablation experiments use
// K_n to show that gossiping behaves the same there as on sparse random
// graphs (the paper's central message). The CSR is built directly —
// n·(n-1) adjacency entries — so keep n moderate (4 GB at n ≈ 2^15·...;
// the experiments use n ≤ 2^14).
func Complete(n int) *Graph {
	if n < 0 {
		panic("graph: negative n")
	}
	off := make([]int64, n+1)
	for v := 0; v <= n; v++ {
		off[v] = int64(v) * int64(n-1)
	}
	adj := make([]int32, int64(n)*int64(max(n-1, 0)))
	for v := 0; v < n; v++ {
		base := off[v]
		i := int64(0)
		for u := 0; u < n; u++ {
			if u == v {
				continue
			}
			adj[base+i] = int32(u)
			i++
		}
	}
	return &Graph{n: n, off: off, adj: adj}
}

// Hypercube returns the d-dimensional hypercube on n = 2^d nodes — one of
// the bounded-degree classes of Feige et al. [23] the related work
// discusses; the broadcast baselines run on it in tests.
func Hypercube(d int) *Graph {
	if d < 0 || d > 30 {
		panic("graph: hypercube dimension out of range")
	}
	n := 1 << d
	edges := make([]Edge, 0, n*d/2)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			u := v ^ (1 << i)
			if u > v {
				edges = append(edges, Edge{U: int32(v), V: int32(u)})
			}
		}
	}
	return FromEdges(n, edges)
}
