package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gossip/internal/xrand"
)

// referenceErdosRenyi is the generator ErdosRenyi replaced, kept as the
// specification of its draws and its layout: the scalar geometric-skip walk
// into an edge list, then FromEdges.
func referenceErdosRenyi(n int, p float64, rng *xrand.RNG) *Graph {
	var edges []Edge
	if p > 0 && n > 1 {
		for u := int32(0); int(u) < n-1; u++ {
			v := int(u)
			for {
				v += 1 + rng.Geometric(p)
				if v >= n {
					break
				}
				edges = append(edges, Edge{U: u, V: int32(v)})
			}
		}
	}
	return FromEdges(n, edges)
}

// sameRows reports whether a and b have the same nodes and the same rows,
// entry for entry in row order: everything a draw reads, whether a graph
// is stored in CSR form or is the implicit K_n.
func sameRows(a, b *Graph) bool {
	if a.n != b.n || a.M() != b.M() {
		return false
	}
	for v := int32(0); int(v) < a.n; v++ {
		d := a.Degree(v)
		if b.Degree(v) != d {
			return false
		}
		for k := range d {
			if a.Neighbor(v, k) != b.Neighbor(v, k) {
				return false
			}
		}
	}
	return true
}

// blockStraddlers are seeds at which G(328, 0.3) takes erBlock-1, erBlock
// and erBlock+1 draws (m + n - 1): the walk ends one skip before the end of
// the first block, on its last skip, and on the first skip of the second.
var blockStraddlers = [3]uint64{265, 181, 548}

// TestErdosRenyiMatchesReference requires the graph and the stream position
// of the reference walk: its CSR, or at p = 1 the rows of that CSR, which
// the implicit K_n returns. The par.For width is the caller's GOMAXPROCS:
// CI's conformance loop runs this test at 1, 2 and 8.
func TestErdosRenyiMatchesReference(t *testing.T) {
	check := func(n int, p float64, seed uint64) {
		t.Helper()
		wantRNG, gotRNG := xrand.New(seed), xrand.New(seed)
		want, got := referenceErdosRenyi(n, p, wantRNG), ErdosRenyi(n, p, gotRNG)
		same := got.n == want.n && slices.Equal(got.off, want.off) && slices.Equal(got.adj, want.adj)
		if p == 1 {
			same = sameRows(got, want)
		}
		if !same || got.adj == nil {
			t.Fatalf("n=%d p=%g seed=%d: graph differs from the reference walk (m %d vs %d)", n, p, seed, got.M(), want.M())
		}
		if *gotRNG != *wantRNG {
			t.Fatalf("n=%d p=%g seed=%d: rng left at a different stream position", n, p, seed)
		}
	}
	// n = 7 is below CI's widest par.For (GOMAXPROCS 8); at p = 1e-4 most
	// upper blocks are empty, and so are whole ranges of destination rows
	// in the parallel count and scatter.
	for _, n := range []int{0, 1, 2, 3, 5, 7, 17, 100, 1000, 3000} {
		// 1e-9 reaches Geometric's MaxInt32 clamp.
		for _, p := range []float64{0, 1e-9, 1e-4, 0.001, 0.01, 0.1, 0.5, 0.9, 1} {
			seeds := uint64(3)
			if float64(n)*float64(n)*p > 2e6 { // multi-million-edge cases: once, and not under -short
				if seeds = 1; testing.Short() {
					continue
				}
			}
			for seed := uint64(1); seed <= seeds; seed++ {
				check(n, p, seed)
			}
		}
	}
	check(2000, 0.05, 4)  // several full blocks
	check(20000, 2e-5, 5) // 4 000 edges over 20 000 rows, split across every core
	for i, seed := range blockStraddlers {
		const n = 328
		if draws := int(referenceErdosRenyi(n, 0.3, xrand.New(seed)).M()) + n - 1; draws != erBlock-1+i {
			t.Fatalf("seed %d takes %d draws, not erBlock%+d: re-pick blockStraddlers", seed, draws, i-1)
		}
		check(n, 0.3, seed)
	}
}

// referenceConfigurationModel is the specification of ConfigurationModel's
// draws and its layout: rng.Shuffle over the node-major stubs, paired off
// in order, then FromEdges.
func referenceConfigurationModel(n, d int, rng *xrand.RNG) *Graph {
	stubs := make([]int32, 0, n*d)
	for v := 0; v < n; v++ {
		for range d {
			stubs = append(stubs, int32(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	edges := make([]Edge, len(stubs)/2)
	for i := range edges {
		edges[i] = Edge{U: stubs[2*i], V: stubs[2*i+1]}
	}
	return FromEdges(n, edges)
}

// TestConfigurationModelMatchesReference requires the reference's graph
// (DeepEqual: the direct CSR scatter is FromEdges' layout) and stream
// position, from the empty pairing up to the sweep's densest degree at
// n = 2048; 30, 121 and 242 are density_models' degrees there.
func TestConfigurationModelMatchesReference(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {1, 0}, {2, 1}, {10, 4}, {64, 3}, {1000, 3}, {100, 6}, {512, 128}, {2048, 30}, {2048, 121}, {2048, 242}} {
		for seed := uint64(1); seed <= 3; seed++ {
			n, d := c[0], c[1]
			wantRNG, gotRNG := xrand.New(seed), xrand.New(seed)
			want, got := referenceConfigurationModel(n, d, wantRNG), ConfigurationModel(n, d, gotRNG)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d d=%d seed=%d: graph differs from the reference", n, d, seed)
			}
			if *gotRNG != *wantRNG {
				t.Fatalf("n=%d d=%d seed=%d: rng left at a different stream position", n, d, seed)
			}
		}
	}
}

// TestErdosRenyiRejectsBadP wants the named panic for every p outside
// [0, 1], NaN included, which no ordered comparison with a bound catches.
func TestErdosRenyiRejectsBadP(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if r := recover(); r != "graph: p out of [0,1]" {
					t.Errorf("p=%g: recovered %v, want the p-out-of-range panic", p, r)
				}
			}()
			ErdosRenyi(10, p, xrand.New(1))
		}()
	}
}

func TestErdosRenyiSortedAdjacency(t *testing.T) {
	g := ErdosRenyi(500, 0.05, xrand.New(9))
	for v := int32(0); int(v) < g.N(); v++ {
		if !slices.IsSorted(g.Neighbors(v)) {
			t.Fatalf("adjacency of %d is not ascending: %v", v, g.Neighbors(v))
		}
	}
}

// TestErdosRenyiPinnedLarge pins the n = 65536 graph of the benchmark's
// broadcast_large regime, where the walk crosses ~500 blocks.
func TestErdosRenyiPinnedLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 8.4M-edge graph")
	}
	const n = 1 << 16
	rng := xrand.New(1)
	g := ErdosRenyi(n, PLogSquared(n), rng)
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, g.adj); err != nil {
		t.Fatal(err)
	}
	const want = "03e800da1a5f62dc5f127363bbde63707909f481e0587bd96b9076b82bae351b" // from the reference walk
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("sha256(adj) = %s (m = %d), want %s", got, g.M(), want)
	}
	if next, want := rng.Uint64(), uint64(0x21ad353339613233); next != want {
		t.Fatalf("next draw after the build = %#x, want %#x", next, want)
	}
}

// TestErdosRenyiAllocationCeiling holds the build to its output plus one
// n-sized scratch slice: adj at 4 bytes per direction (8·m), off at 8
// bytes per node and the upper-degree and fill counts at 4 each (16·n),
// and 5 % for the 8σ of spare capacity, the draw block and par.For.
func TestErdosRenyiAllocationCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 1 << 14
	p := PLogSquared(n)
	var m int64
	build := func() { m = ErdosRenyi(n, p, xrand.New(3)).M() }
	build()
	var before, after runtime.MemStats
	const calls = 4
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	if ceiling := 1.05 * float64(8*m+16*n); perCall > ceiling {
		t.Fatalf("ErdosRenyi(n=%d) allocates %.0f B per call, ceiling %.0f (m = %d)", n, perCall, ceiling, m)
	}
}
