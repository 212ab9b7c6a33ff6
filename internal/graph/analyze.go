package graph

import (
	"slices"

	"gossip/internal/stats"
)

// BFS returns the hop distance from src to every node (-1 for unreachable).
// It stops once every node is reached, so K_n costs O(n), not O(n²).
func BFS(g *Graph, src int32) []int32 {
	dist := slices.Repeat([]int32{-1}, g.N())
	dist[src] = 0
	queue := make([]int32, 0, g.N())
	queue = append(queue, src)
	for reached := 1; len(queue) > 0 && reached < g.N(); {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
				reached++
			}
		}
	}
	return dist
}

// IsConnected reports whether g is connected (vacuously true for n <= 1).
func IsConnected(g *Graph) bool {
	if g.N() <= 1 {
		return true
	}
	for _, d := range BFS(g, 0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// DegreeStats summarizes the degree sequence. The paper's models rely on
// degree concentration d_v = d(1 ± o(1)); tests assert it.
func DegreeStats(g *Graph) stats.Summary {
	xs := make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		xs[v] = float64(g.Degree(int32(v)))
	}
	return stats.Summarize(xs)
}
