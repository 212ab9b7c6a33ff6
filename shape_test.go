package gossip

// Shape tests: regression fits over size sweeps that pin the paper's
// qualitative claims — the strongest form of "reproduces the figure"
// that a unit test can assert without golden numbers.

import (
	"testing"

	"gossip/internal/core"
	"gossip/internal/graph"
	"gossip/internal/stats"
)

// sweepMsgsPerNode runs algo over a doubling size grid and returns the
// least-squares fit of messages/node against log₂n.
func sweepMsgsPerNode(t *testing.T, sizes []int, run func(n int, seed uint64) *Result) stats.Fit {
	t.Helper()
	var xs, ys []float64
	for _, n := range sizes {
		const reps = 2
		acc := 0.0
		for r := uint64(0); r < reps; r++ {
			res := run(n, uint64(n)+r)
			if !res.Completed {
				t.Fatalf("n=%d run incomplete", n)
			}
			acc += res.TransmissionsPerNode() / reps
		}
		xs = append(xs, core.Logn(n))
		ys = append(ys, acc)
	}
	return stats.LinearFit(xs, ys)
}

var shapeSizes = []int{1024, 2048, 4096, 8192}

func TestShapePushPullGrowsLikeLogN(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: multi-size shape sweep")
	}
	// Figure 1: the baseline's messages/node equal its round count, which
	// grows ~log n. Slope in log₂n close to 1.
	fit := sweepMsgsPerNode(t, shapeSizes, func(n int, seed uint64) *Result {
		return RunPushPull(NewPaperGraph(n, seed), seed, 0)
	})
	if fit.Slope < 0.4 || fit.Slope > 1.8 {
		t.Errorf("push-pull slope vs log n = %v, want ≈1", fit.Slope)
	}
}

func TestShapeMemoryFlat(t *testing.T) {
	// Figure 1: the memory model's messages/node are bounded by a small
	// constant independent of n — slope ≈ 0.
	fit := sweepMsgsPerNode(t, shapeSizes, func(n int, seed uint64) *Result {
		return RunMemoryGossip(NewPaperGraph(n, seed), TunedMemoryParams(n), seed, -1)
	})
	if fit.Slope > 0.25 || fit.Slope < -0.25 {
		t.Errorf("memory slope vs log n = %v, want ≈0", fit.Slope)
	}
}

func TestShapeFastGossipBetweenBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: multi-size shape sweep")
	}
	// Figure 1: FastGossiping grows slower than the baseline (the gap
	// widens with n).
	pp := sweepMsgsPerNode(t, shapeSizes, func(n int, seed uint64) *Result {
		return RunPushPull(NewPaperGraph(n, seed), seed, 0)
	})
	fg := sweepMsgsPerNode(t, shapeSizes, func(n int, seed uint64) *Result {
		return RunFastGossip(NewPaperGraph(n, seed), TunedFastGossipParams(n), seed)
	})
	if fg.Slope >= pp.Slope {
		t.Errorf("fast-gossiping slope %v not below push-pull slope %v", fg.Slope, pp.Slope)
	}
}

func TestShapeGossipDensityInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: multi-size shape sweep")
	}
	// The title claim: at fixed n, messages/node of gossiping barely move
	// across an 8x density range (d = log^1.5 n … log^3 n).
	n := 4096
	var ys []float64
	for _, e := range []float64{1.5, 2.0, 2.5, 3.0} {
		g := NewErdosRenyi(n, graph.PLogPow(n, e), uint64(100*e))
		res := RunPushPull(g, uint64(e*7), 0)
		if !res.Completed {
			t.Fatalf("density %v run incomplete", e)
		}
		ys = append(ys, res.TransmissionsPerNode())
	}
	lo, hi := ys[0], ys[0]
	for _, y := range ys {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	if hi > 1.35*lo {
		t.Errorf("push-pull gossiping density-sensitive: %v", ys)
	}
}

func TestShapeBroadcastPushTransmissionsTrackNLogN(t *testing.T) {
	// Context ([23], [39]): push-only broadcast sends Θ(log n) copies per
	// node; slope vs log₂n is a positive constant.
	var xs, ys []float64
	for _, n := range shapeSizes {
		res := RunBroadcast(NewPaperGraph(n, uint64(n)+5), 0, PushOnly, uint64(n), 0)
		if !res.Completed {
			t.Fatalf("n=%d broadcast incomplete", n)
		}
		xs = append(xs, core.Logn(n))
		ys = append(ys, float64(res.Transmissions)/float64(n))
	}
	fit := stats.LinearFit(xs, ys)
	if fit.Slope < 0.3 {
		t.Errorf("push broadcast slope vs log n = %v, want clearly positive", fit.Slope)
	}
}

func TestShapeMedianCounterTracksLogLogN(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: multi-size shape sweep")
	}
	// Karp et al.: transmissions/node = Θ(loglog n) — across a 64x size
	// range the per-node cost divided by loglog n stays within a narrow
	// constant band.
	var ratios []float64
	for _, n := range []int{512, 4096, 32768} {
		res := core.MedianCounterBroadcast(NewPaperGraph(n, uint64(n)+9), 0,
			core.DefaultMedianCounterParams(n), uint64(n))
		if !res.Completed || !res.Quiesced {
			t.Fatalf("n=%d median counter failed", n)
		}
		ratios = append(ratios, float64(res.Transmissions)/float64(res.N)/float64(core.Logn(n)))
	}
	// Dividing by log n instead of loglog n must show clear decay…
	if !(ratios[2] < ratios[0]) {
		t.Errorf("median counter scaling looks like n·log n: %v", ratios)
	}
}
