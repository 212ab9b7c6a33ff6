package gossip

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section plus the internal/exp ablations. Each benchmark runs the
// real experiment at a bench-sized scale and reports the paper's metric
// via b.ReportMetric, so `go test -bench .` regenerates the headline
// numbers. The full-scale figures come from `go run ./cmd/figures`.

import (
	"fmt"
	"testing"
)

// benchSeed keeps benchmark inputs fixed across runs so ns/op is
// comparable between commits.
const benchSeed = 2015 // IPDPS'15

func reportRun(b *testing.B, res *Result) {
	b.ReportMetric(res.TransmissionsPerNode(), "msgs/node")
	b.ReportMetric(float64(res.Steps), "rounds")
	if !res.Completed {
		b.Fatalf("%s did not complete", res.Algorithm)
	}
}

// BenchmarkFigure1 regenerates the Figure 1 series: messages per node for
// the three gossiping methods on G(n, log²n/n).
func BenchmarkFigure1(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		g := NewPaperGraph(n, benchSeed)
		b.Run(fmt.Sprintf("PushPull/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reportRun(b, RunPushPull(g, benchSeed+uint64(i), 0))
			}
		})
		b.Run(fmt.Sprintf("FastGossiping/n=%d", n), func(b *testing.B) {
			p := TunedFastGossipParams(n)
			for i := 0; i < b.N; i++ {
				reportRun(b, RunFastGossip(g, p, benchSeed+uint64(i)))
			}
		})
		b.Run(fmt.Sprintf("Memory/n=%d", n), func(b *testing.B) {
			p := TunedMemoryParams(n)
			for i := 0; i < b.N; i++ {
				reportRun(b, RunMemoryGossip(g, p, benchSeed+uint64(i), -1))
			}
		})
	}
}

// BenchmarkFigure2 regenerates the Figure 2 robustness ratio (additional
// lost messages / F) on one large graph with 3 independent trees.
func BenchmarkFigure2(b *testing.B) {
	n := 50000
	g := NewPaperGraph(n, benchSeed)
	p := TunedMemoryParams(n)
	p.Trees = 3
	for _, f := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d/F=%d", n, f), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res := RunMemoryRobustness(g, p, benchSeed+uint64(i), f)
				ratio = res.Ratio
			}
			b.ReportMetric(ratio, "lost/F")
		})
	}
}

// BenchmarkFigure3 is the Figure 2 study at two smaller sizes.
func BenchmarkFigure3(b *testing.B) {
	for _, n := range []int{20000, 50000} {
		g := NewPaperGraph(n, benchSeed+1)
		p := TunedMemoryParams(n)
		p.Trees = 3
		f := n / 20
		b.Run(fmt.Sprintf("n=%d/F=%d", n, f), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = RunMemoryRobustness(g, p, benchSeed+uint64(i), f).Ratio
			}
			b.ReportMetric(ratio, "lost/F")
		})
	}
}

// BenchmarkFigure4 regenerates the dense FastGossiping sweep (the sawtooth
// between schedule jumps).
func BenchmarkFigure4(b *testing.B) {
	for _, n := range []int{8192, 12288, 16384} {
		g := NewPaperGraph(n, benchSeed+2)
		p := TunedFastGossipParams(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reportRun(b, RunFastGossip(g, p, benchSeed+uint64(i)))
			}
		})
	}
}

// BenchmarkFigure5 regenerates the loss-tail experiment: the share of runs
// losing more than T additional messages.
func BenchmarkFigure5(b *testing.B) {
	n := 20000
	g := NewPaperGraph(n, benchSeed+3)
	p := TunedMemoryParams(n)
	p.Trees = 3
	for _, T := range []int{0, 10, 100} {
		b.Run(fmt.Sprintf("n=%d/T=%d", n, T), func(b *testing.B) {
			f := n / 10
			exceed, runs := 0, 0
			for i := 0; i < b.N; i++ {
				res := RunMemoryRobustness(g, p, benchSeed+uint64(i), f)
				runs++
				if res.LostAdditional > T {
					exceed++
				}
			}
			b.ReportMetric(float64(exceed)/float64(runs), "frac>T")
		})
	}
}

// BenchmarkTable1 runs each algorithm once per iteration under the exact
// Table 1 constants and reports per-phase step counts, validating that the
// tuned schedule completes (the table's purpose in the paper).
func BenchmarkTable1(b *testing.B) {
	n := 4096
	g := NewPaperGraph(n, benchSeed+4)
	b.Run("FastGossipingTunedConstants", func(b *testing.B) {
		p := TunedFastGossipParams(n)
		for i := 0; i < b.N; i++ {
			res := RunFastGossip(g, p, benchSeed+uint64(i))
			reportRun(b, res)
			b.ReportMetric(float64(res.Phases[0].Meter.Steps), "phase1-steps")
			b.ReportMetric(float64(res.Phases[1].Meter.Steps), "phase2-steps")
			b.ReportMetric(float64(res.Phases[2].Meter.Steps), "phase3-steps")
		}
	})
	b.Run("MemoryTunedConstants", func(b *testing.B) {
		p := TunedMemoryParams(n)
		for i := 0; i < b.N; i++ {
			res := RunMemoryGossip(g, p, benchSeed+uint64(i), -1)
			reportRun(b, res)
			b.ReportMetric(float64(res.Phases[0].Meter.Steps), "phase1-steps")
		}
	})
}

// BenchmarkAblationDensity sweeps density (the paper's title question).
func BenchmarkAblationDensity(b *testing.B) {
	n := 4096
	for _, e := range []float64{1.5, 2.0, 3.0} {
		p := EdgeProbabilityLogPow(n, e)
		g := NewErdosRenyi(n, p, benchSeed+5)
		b.Run(fmt.Sprintf("FastGossiping/deg=log^%.1f", e), func(b *testing.B) {
			params := TunedFastGossipParams(n)
			for i := 0; i < b.N; i++ {
				reportRun(b, RunFastGossip(g, params, benchSeed+uint64(i)))
			}
		})
	}
}

// BenchmarkAblationWalkProb sweeps the Phase II walk probability factor.
func BenchmarkAblationWalkProb(b *testing.B) {
	n := 4096
	g := NewPaperGraph(n, benchSeed+6)
	for _, ell := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("ell=%.1f", ell), func(b *testing.B) {
			p := TunedFastGossipParams(n)
			p.WalkProb = ell / Log2n(n)
			for i := 0; i < b.N; i++ {
				reportRun(b, RunFastGossip(g, p, benchSeed+uint64(i)))
			}
		})
	}
}

// BenchmarkAblationMemorySize sweeps the link-memory capacity of the
// memory model.
func BenchmarkAblationMemorySize(b *testing.B) {
	n := 4096
	g := NewPaperGraph(n, benchSeed+7)
	for _, slots := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			p := TunedMemoryParams(n)
			p.MemSlots = slots
			for i := 0; i < b.N; i++ {
				reportRun(b, RunMemoryGossip(g, p, benchSeed+uint64(i), -1))
			}
		})
	}
}

// BenchmarkAblationTrees sweeps gather-tree redundancy vs losses.
func BenchmarkAblationTrees(b *testing.B) {
	n := 20000
	g := NewPaperGraph(n, benchSeed+8)
	f := n / 20
	for _, trees := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			p := TunedMemoryParams(n)
			p.Trees = trees
			var lost float64
			for i := 0; i < b.N; i++ {
				lost = float64(RunMemoryRobustness(g, p, benchSeed+uint64(i), f).LostAdditional)
			}
			b.ReportMetric(lost, "lost")
		})
	}
}

// BenchmarkAblationBroadcast runs the single-message baselines — the
// broadcasting context ([34], [19]) the paper contrasts gossiping against.
func BenchmarkAblationBroadcast(b *testing.B) {
	n := 8192
	g := NewPaperGraph(n, benchSeed+9)
	for _, mode := range []BroadcastMode{PushOnly, PullOnly, PushAndPull} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := RunBroadcast(g, 0, mode, benchSeed+uint64(i), 0)
				if !res.Completed {
					b.Fatal("broadcast incomplete")
				}
				b.ReportMetric(float64(res.Steps), "rounds")
				b.ReportMetric(float64(res.Transmissions)/float64(n), "msgs/node")
			}
		})
	}
}

// BenchmarkAblationComplete compares gossiping on K_n vs G(n, log²n/n) —
// the paper's central "no significant difference" claim.
func BenchmarkAblationComplete(b *testing.B) {
	n := 2048
	topologies := map[string]*Graph{
		"complete": NewComplete(n),
		"sparse":   NewPaperGraph(n, benchSeed+11),
	}
	for name, g := range topologies {
		b.Run("FastGossiping/"+name, func(b *testing.B) {
			p := TunedFastGossipParams(n)
			for i := 0; i < b.N; i++ {
				reportRun(b, RunFastGossip(g, p, benchSeed+uint64(i)))
			}
		})
	}
}

// BenchmarkAblationMedianCounter measures the Karp et al. broadcast — the
// complete-graph O(n·loglog n) context result — on both topologies.
func BenchmarkAblationMedianCounter(b *testing.B) {
	n := 4096
	topologies := map[string]*Graph{
		"complete": NewComplete(n),
		"sparse":   NewPaperGraph(n, benchSeed+12),
	}
	for name, g := range topologies {
		b.Run(name, func(b *testing.B) {
			p := DefaultMedianCounterParams(n)
			for i := 0; i < b.N; i++ {
				res := RunMedianCounterBroadcast(g, 0, p, benchSeed+uint64(i))
				if !res.Completed || !res.Quiesced {
					b.Fatal("median counter failed")
				}
				b.ReportMetric(float64(res.Transmissions)/float64(n), "msgs/node")
				b.ReportMetric(float64(res.Steps), "rounds")
			}
		})
	}
}

// BenchmarkSampledEstimator measures the Θ(n·k)-memory estimator that
// lifts the exact tracker's n² wall.
func BenchmarkSampledEstimator(b *testing.B) {
	for _, n := range []int{16384, 65536} {
		g := NewPaperGraph(n, benchSeed+13)
		b.Run(fmt.Sprintf("n=%d/k=32", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := RunPushPullSampled(g, benchSeed+uint64(i), 32, 0)
				if !res.Completed {
					b.Fatal("estimator incomplete")
				}
				b.ReportMetric(float64(res.Steps), "rounds")
			}
		})
	}
}

// BenchmarkLeaderElection measures Algorithm 3 on its own.
func BenchmarkLeaderElection(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		g := NewPaperGraph(n, benchSeed+10)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := DefaultLeaderParams(n)
			for i := 0; i < b.N; i++ {
				res := RunElectLeader(g, p, benchSeed+uint64(i))
				if !res.Unique {
					b.Fatal("election failed")
				}
				b.ReportMetric(float64(res.Meter.Transmissions)/float64(n), "msgs/node")
			}
		})
	}
}
