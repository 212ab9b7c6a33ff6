package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

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

// blockStraddlers are seeds at which G(328, 0.3) takes erBlock-1, erBlock
// and erBlock+1 draws (m + n - 1): the walk ends one skip before the end of
// the first block, on its last skip, and on the first skip of the second.
var blockStraddlers = [3]uint64{265, 181, 548}

// TestErdosRenyiMatchesReference requires the graph and the stream position
// of the reference walk. The par.For width is the caller's GOMAXPROCS: CI's
// conformance loop runs this test at 1, 2 and 8.
func TestErdosRenyiMatchesReference(t *testing.T) {
	check := func(n int, p float64, seed uint64) {
		t.Helper()
		wantRNG, gotRNG := xrand.New(seed), xrand.New(seed)
		want, got := referenceErdosRenyi(n, p, wantRNG), ErdosRenyi(n, p, gotRNG)
		if got.n != want.n || !slices.Equal(got.off, want.off) || !slices.Equal(got.adj, want.adj) || got.adj == nil {
			t.Fatalf("n=%d p=%g seed=%d: graph differs from the reference walk (m %d vs %d)", n, p, seed, got.M(), want.M())
		}
		if *gotRNG != *wantRNG {
			t.Fatalf("n=%d p=%g seed=%d: rng left at a different stream position", n, p, seed)
		}
	}
	for _, n := range []int{0, 1, 2, 3, 5, 17, 100, 1000, 3000} {
		// 1e-9 reaches Geometric's MaxInt32 clamp.
		for _, p := range []float64{0, 1e-9, 0.001, 0.01, 0.1, 0.5, 0.9, 1} {
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
	check(2000, 0.05, 4) // several full blocks
	for i, seed := range blockStraddlers {
		const n = 328
		if draws := int(referenceErdosRenyi(n, 0.3, xrand.New(seed)).M()) + n - 1; draws != erBlock-1+i {
			t.Fatalf("seed %d takes %d draws, not erBlock%+d: re-pick blockStraddlers", seed, draws, i-1)
		}
		check(n, 0.3, seed)
	}
}

// randomRegularReference is the RandomRegular this package had before a
// rejected try stopped at its first loop, kept as the specification of its
// draws and its result: 40 whole closure shuffles, each paired off and
// scanned, then ConfigurationModel's shuffle erased through a map. It also
// reports which try was accepted (0: the erased fallback) and whether some
// rejected try had pair 0 as its only loop, the one a shuffle closes last.
func randomRegularReference(n, d int, rng *xrand.RNG) (g *Graph, accepted int, pair0Only bool) {
	pairing := func() []Edge {
		stubs := make([]int32, n*d)
		for v := 0; v < n; v++ {
			for k := 0; k < d; k++ {
				stubs[v*d+k] = int32(v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		edges := make([]Edge, len(stubs)/2)
		for i := range edges {
			edges[i] = Edge{U: stubs[2*i], V: stubs[2*i+1]}
		}
		return edges
	}
	const maxTries = 40
	for try := 1; try <= maxTries; try++ {
		edges := pairing()
		loops := 0
		for _, e := range edges {
			if e.U == e.V {
				loops++
			}
		}
		pair0Only = pair0Only || loops == 1 && edges[0].U == edges[0].V
		if loops > 0 {
			continue
		}
		seen := make(map[[2]int32]bool, len(edges))
		for _, e := range edges {
			seen[[2]int32{min(e.U, e.V), max(e.U, e.V)}] = true
		}
		if len(seen) == len(edges) {
			return FromEdges(n, edges), try, pair0Only
		}
	}
	multi := FromEdges(n, pairing())
	var edges []Edge
	seen := make(map[[2]int32]bool)
	for v := int32(0); int(v) < n; v++ {
		for _, u := range multi.Neighbors(v) {
			if key := [2]int32{u, v}; u < v && !seen[key] {
				seen[key] = true
				edges = append(edges, Edge{U: u, V: v})
			}
		}
	}
	return FromEdges(n, edges), 0, pair0Only
}

// TestRandomRegularMatchesReference requires the reference's graph and
// stream position from degrees that accept on the first tries up to the
// sweep's densest, which never accept, and that the cases reach every way a
// try can end: accepted late, rejected on pair 0 alone, and the fallback.
func TestRandomRegularMatchesReference(t *testing.T) {
	var late, pair0, fallback bool
	check := func(n, d int, seed uint64) {
		t.Helper()
		wantRNG, gotRNG := xrand.New(seed), xrand.New(seed)
		want, accepted, pair0Only := randomRegularReference(n, d, wantRNG)
		got := RandomRegular(n, d, gotRNG)
		if got.n != want.n || !slices.Equal(got.off, want.off) || !slices.Equal(got.adj, want.adj) || got.adj == nil {
			t.Fatalf("n=%d d=%d seed=%d: graph differs from the reference (m %d vs %d)", n, d, seed, got.M(), want.M())
		}
		if *gotRNG != *wantRNG {
			t.Fatalf("n=%d d=%d seed=%d: rng left at a different stream position", n, d, seed)
		}
		late, pair0, fallback = late || accepted > 1, pair0 || pair0Only, fallback || accepted == 0
	}
	// {512, 128} is the -short case whose stretches are long enough for the
	// checker goroutine, so that the race job runs it.
	for _, c := range [][2]int{{0, 0}, {1, 0}, {2, 1}, {10, 4}, {64, 3}, {1000, 3}, {100, 6}, {512, 128}, {2048, 30}, {2048, 242}} {
		for seed := uint64(1); seed <= 5; seed++ {
			if c[0]*c[1] > 1e4 && seed > 1 && testing.Short() { // 41 closure shuffles of n·d stubs: once
				break
			}
			check(c[0], c[1], seed)
		}
	}
	if !late || !pair0 || !fallback {
		t.Fatalf("cases miss a path: accepted after try 1 %v, rejected on pair 0 alone %v, fallback %v", late, pair0, fallback)
	}
}

// TestRandomRegularRecovers drives randomRegular's seam at every stretch.
// Reported as redrawn although its walk agrees, the stretch must leave the
// reference's graph and stream position: the tries after it rerun from the
// walked state. Given a real redraw (one more Uint64 in its walk), the
// result must be the sequential tries' with that draw added. The cases end
// in the fallback after 40 stretches, and in an acceptance (tries 18 and 6)
// after 11 and 5.
func TestRandomRegularRecovers(t *testing.T) {
	for _, c := range [][4]int{{512, 128, 1, 40}, {2000, 4, 3, 11}, {4000, 3, 4, 5}} {
		n, d, seed := c[0], c[1], uint64(c[2])
		refRNG := xrand.New(seed)
		ref, _, _ := randomRegularReference(n, d, refRNG)
		for bad := -1; bad < c[3]; bad++ {
			if testing.Short() && bad > 0 && bad < c[3]-1 {
				continue
			}
			for _, redraw := range []bool{false, true} {
				want, wantRNG, k := ref, refRNG, 0
				if redraw {
					wantRNG = xrand.New(seed)
					want = regularTries(n, d, 0, newStubs(n, d), wantRNG, func(_, steps int) {
						if wantRNG.SkipShuffle(steps); steps >= jumpMin {
							if k++; k == bad+1 {
								wantRNG.Uint64()
							}
						}
					})
				}
				stretches, rng := 0, xrand.New(seed)
				got := randomRegular(n, d, rng, func(j int, walked, advanced *xrand.RNG) bool {
					if stretches++; j == bad && redraw {
						walked.Uint64()
					}
					return j == bad && !redraw || *walked != *advanced
				})
				if !slices.Equal(got.off, want.off) || !slices.Equal(got.adj, want.adj) || *rng != *wantRNG {
					t.Fatalf("n=%d d=%d seed=%d: stretch %d redrawn (%v): graph or stream position differs", n, d, seed, bad, redraw)
				}
				if bad < 0 && stretches != c[3] { // else the check stops at stretch bad
					t.Fatalf("n=%d d=%d seed=%d: %d stretches, want %d", n, d, seed, stretches, c[3])
				}
			}
		}
	}
}

// TestRandomRegularNoGoroutineLeak builds 100 graphs whose stretches go to
// the checker goroutine and requires the goroutine count back at its
// baseline within a second.
func TestRandomRegularNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for seed := range uint64(100) {
		RandomRegular(256, 32, xrand.New(seed))
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still running, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
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
// n-sized scratch slice: adj at 4 bytes per direction (8·m), off and the
// row marker at 8 bytes per node each (16·n), and 5 % for the 8σ of spare
// capacity, the draw block and par.For.
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
