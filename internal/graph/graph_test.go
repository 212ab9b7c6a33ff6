package graph

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gossip/internal/xrand"
)

func TestFromEdgesBasic(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 3 {
		t.Fatalf("M = %d", g.M())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Errorf("degrees wrong: %d %d", g.Degree(1), g.Degree(0))
	}
	if !slices.Contains(g.Neighbors(0), 1) || !slices.Contains(g.Neighbors(1), 0) {
		t.Error("missing symmetric edge 0-1")
	}
	if slices.Contains(g.Neighbors(0), 3) {
		t.Error("phantom edge 0-3")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFromEdgesSelfLoop(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 0}, {0, 1}})
	// Self-loop contributes 2 to the degree (two stubs).
	if g.Degree(0) != 3 {
		t.Errorf("Degree(0) = %d, want 3", g.Degree(0))
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFromEdgesMultiEdge(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}, {0, 1}})
	if g.Degree(0) != 2 || g.Degree(1) != 2 {
		t.Error("multi-edge degrees wrong")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRandomNeighborUniform(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	rng := xrand.New(1)
	counts := map[int32]int{}
	const trials = 30000
	for i := 0; i < trials; i++ {
		counts[g.RandomNeighbor(0, rng)]++
	}
	for _, u := range []int32{1, 2, 3} {
		frac := float64(counts[u]) / trials
		if math.Abs(frac-1.0/3.0) > 0.02 {
			t.Errorf("neighbor %d frequency %v, want ~1/3", u, frac)
		}
	}
}

func TestRandomNeighborIsolated(t *testing.T) {
	g := FromEdges(2, nil)
	if got := g.RandomNeighbor(0, xrand.New(1)); got != -1 {
		t.Errorf("isolated RandomNeighbor = %d", got)
	}
	if got := g.RandomNeighborAvoid(0, xrand.New(1), nil); got != -1 {
		t.Errorf("isolated RandomNeighborAvoid = %d", got)
	}
}

func TestRandomNeighborAvoid(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	rng := xrand.New(2)
	avoid := []int32{1, 2, 3}
	for i := 0; i < 1000; i++ {
		u := g.RandomNeighborAvoid(0, rng, avoid)
		if u != 4 {
			t.Fatalf("RandomNeighborAvoid returned %d, want 4", u)
		}
	}
	// All neighbors avoided.
	if u := g.RandomNeighborAvoid(0, rng, []int32{1, 2, 3, 4}); u != -1 {
		t.Errorf("fully avoided RandomNeighborAvoid = %d, want -1", u)
	}
}

func TestRandomNeighborAvoidUniformOverRemainder(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	rng := xrand.New(3)
	counts := map[int32]int{}
	const trials = 30000
	for i := 0; i < trials; i++ {
		counts[g.RandomNeighborAvoid(0, rng, []int32{1})]++
	}
	if counts[1] != 0 {
		t.Error("avoided neighbor was returned")
	}
	for _, u := range []int32{2, 3, 4} {
		frac := float64(counts[u]) / trials
		if math.Abs(frac-1.0/3.0) > 0.02 {
			t.Errorf("neighbor %d frequency %v, want ~1/3", u, frac)
		}
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	rng := xrand.New(7)
	n := 2000
	p := 0.005
	g := ErdosRenyi(n, p, rng)
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.M())
	sd := math.Sqrt(want)
	if math.Abs(got-want) > 6*sd {
		t.Errorf("G(n,p) edges = %v, want %v ± %v", got, want, 6*sd)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestErdosRenyiNoLoopsNoDuplicates(t *testing.T) {
	rng := xrand.New(8)
	g := ErdosRenyi(300, 0.05, rng)
	for v := int32(0); int(v) < g.N(); v++ {
		seen := map[int32]bool{}
		for _, u := range g.Neighbors(v) {
			if u == v {
				t.Fatalf("self-loop at %d", v)
			}
			if seen[u] {
				t.Fatalf("duplicate edge %d-%d", v, u)
			}
			seen[u] = true
		}
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := xrand.New(9)
	if g := ErdosRenyi(50, 0, rng); g.M() != 0 {
		t.Error("G(n,0) has edges")
	}
	g := ErdosRenyi(50, 1, rng)
	if g.M() != 50*49/2 {
		t.Errorf("G(n,1) has %d edges", g.M())
	}
	if g := ErdosRenyi(0, 0.5, rng); g.N() != 0 {
		t.Error("G(0,p) wrong")
	}
	if g := ErdosRenyi(1, 0.5, rng); g.M() != 0 {
		t.Error("G(1,p) has edges")
	}
}

func TestErdosRenyiConnectedAtPaperDensity(t *testing.T) {
	// p = log²n/n is far above the connectivity threshold log n / n.
	rng := xrand.New(10)
	for _, n := range []int{256, 1024} {
		g := ErdosRenyi(n, PLogSquared(n), rng)
		if !IsConnected(g) {
			t.Errorf("G(%d, log²n/n) disconnected", n)
		}
	}
}

func TestDegreeConcentration(t *testing.T) {
	// The model section asserts d_v = d(1 ± o(1)) w.h.p. at this density.
	rng := xrand.New(11)
	n := 4096
	g := ErdosRenyi(n, PLogSquared(n), rng)
	d := PLogSquared(n) * float64(n-1)
	st := DegreeStats(g)
	if math.Abs(st.Mean-d) > 0.05*d {
		t.Errorf("mean degree %v, want ~%v", st.Mean, d)
	}
	if st.Min < 0.5*d || st.Max > 1.6*d {
		t.Errorf("degree spread [%v, %v] too wide around %v", st.Min, st.Max, d)
	}
}

func TestConfigurationModelDegrees(t *testing.T) {
	rng := xrand.New(12)
	n, d := 500, 16
	g, st := ConfigurationModel(n, d, rng)
	for v := int32(0); int(v) < n; v++ {
		if g.Degree(v) != d {
			t.Fatalf("Degree(%d) = %d, want %d", v, g.Degree(v), d)
		}
	}
	if g.M() != int64(n*d/2) {
		t.Errorf("M = %d", g.M())
	}
	// Defects are Θ(d²) in expectation — crucially, independent of n
	// ("with high probability the number of such edges is a constant",
	// paper §2). E[loops] ≈ (d-1)/2, E[multi] ≈ (d-1)²/4.
	if st.SelfLoops > 8*d || st.MultiEdges > 2*d*d {
		t.Errorf("too many pairing defects: %+v", st)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestConfigurationModelDefectsIndependentOfN(t *testing.T) {
	// The defect count must not grow with n at fixed d.
	rng := xrand.New(33)
	d := 8
	avg := func(n, reps int) float64 {
		tot := 0
		for i := 0; i < reps; i++ {
			_, st := ConfigurationModel(n, d, rng)
			tot += st.SelfLoops + st.MultiEdges
		}
		return float64(tot) / float64(reps)
	}
	small := avg(200, 20)
	large := avg(3200, 20)
	// Allow generous noise; the point is large is not ~16x small.
	if large > 3*small+10 {
		t.Errorf("defects grow with n: %v (n=200) vs %v (n=3200)", small, large)
	}
}

func TestConfigurationModelOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd n*d should panic")
		}
	}()
	ConfigurationModel(3, 3, xrand.New(1))
}

func TestRandomRegularSimple(t *testing.T) {
	rng := xrand.New(13)
	n, d := 200, 8
	g := RandomRegular(n, d, rng)
	for v := int32(0); int(v) < n; v++ {
		seen := map[int32]bool{}
		for _, u := range g.Neighbors(v) {
			if u == v {
				t.Fatalf("self-loop in RandomRegular at %d", v)
			}
			if seen[u] {
				t.Fatalf("multi-edge in RandomRegular %d-%d", v, u)
			}
			seen[u] = true
		}
	}
	if !IsConnected(g) {
		t.Error("random regular graph disconnected (astronomically unlikely)")
	}
}

func TestRandomRegularDeterminism(t *testing.T) {
	a := RandomRegular(128, 6, xrand.New(21))
	b := RandomRegular(128, 6, xrand.New(21))
	for v := int32(0); int(v) < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestValidateDetectsAsymmetry(t *testing.T) {
	// Hand-corrupt a CSR: entry 0->1 with no matching 1->0. The first
	// offending pair in vertex order must be reported deterministically.
	g := &Graph{n: 2, off: []int64{0, 1, 1}, adj: []int32{1}}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "asymmetric adjacency [0 1]") {
		t.Fatalf("Validate = %v, want asymmetric adjacency [0 1]", err)
	}

	out := &Graph{n: 2, off: []int64{0, 1, 2}, adj: []int32{5, 0}}
	if err := out.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Validate = %v, want out-of-range endpoint", err)
	}
}

func TestSimplify(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 0}, {0, 1}, {0, 1}, {1, 2}})
	s := Simplify(g)
	if s.M() != 2 {
		t.Errorf("Simplify M = %d, want 2", s.M())
	}
	if s.Degree(0) != 1 || s.Degree(1) != 2 {
		t.Errorf("Simplify degrees wrong: %d %d", s.Degree(0), s.Degree(1))
	}
}

func TestChungLuDegreesTrackWeights(t *testing.T) {
	rng := xrand.New(14)
	n := 2000
	w := make([]float64, n)
	for i := range w {
		if i < n/2 {
			w[i] = 30
		} else {
			w[i] = 6
		}
	}
	g := ChungLu(w, rng)
	var hi, lo float64
	for v := 0; v < n; v++ {
		if v < n/2 {
			hi += float64(g.Degree(int32(v)))
		} else {
			lo += float64(g.Degree(int32(v)))
		}
	}
	hi /= float64(n / 2)
	lo /= float64(n / 2)
	if math.Abs(hi-30) > 3 || math.Abs(lo-6) > 1.5 {
		t.Errorf("Chung-Lu mean degrees %v / %v, want ~30 / ~6", hi, lo)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPowerLawWeights(t *testing.T) {
	w := PowerLawWeights(100, 3, 2)
	if len(w) != 100 {
		t.Fatal("wrong length")
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Fatal("weights should be non-increasing")
		}
	}
	if w[99] < 2-1e-9 {
		t.Errorf("minimum weight %v < wmin", w[99])
	}
}

func TestBFSPath(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}})
	d := BFS(g, 0)
	want := []int32{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
	if IsConnected(g) {
		t.Error("graph with isolated node reported connected")
	}
}

func TestQuickHandshakeLemma(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(200)
		g := ErdosRenyi(n, 0.1, rng)
		var sum int64
		for v := int32(0); int(v) < n; v++ {
			sum += int64(g.Degree(v))
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAdjacencySymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(100)
		g := ErdosRenyi(n, 0.15, rng)
		return g.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickConfigModelStubCount(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 * (1 + rng.Intn(60))
		d := 1 + rng.Intn(6)
		g, _ := ConfigurationModel(n, d, rng)
		var sum int64
		for v := int32(0); int(v) < n; v++ {
			sum += int64(g.Degree(v))
		}
		return sum == int64(n*d) && g.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := ErdosRenyi(500, 0.02, xrand.New(42))
	b := ErdosRenyi(500, 0.02, xrand.New(42))
	if a.M() != b.M() {
		t.Fatal("same-seed graphs differ in edge count")
	}
	for v := int32(0); int(v) < 500; v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func BenchmarkErdosRenyi(b *testing.B) {
	rng := xrand.New(1)
	n := 10000
	p := PLogSquared(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := ErdosRenyi(n, p, rng)
		_ = g
	}
}

func BenchmarkConfigurationModel(b *testing.B) {
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		g, _ := ConfigurationModel(10000, 64, rng)
		_ = g
	}
}
