package exp

import (
	"fmt"

	"gossip/internal/asciiplot"
	"gossip/internal/core"
	"gossip/internal/runner"
	"gossip/internal/sweep"
)

// defaultFailureGrid returns a log-spaced failure-count grid for size n,
// mirroring the paper's x axes (Figure 2: 10³–10⁶ at n = 10⁶; Figure 3:
// 10²–10⁵ at n = 10⁵ and 10³–10⁵·5 at n = 5·10⁵).
func defaultFailureGrid(n, points int) []int {
	lo := n / 1000
	if lo < 10 {
		lo = 10
	}
	return sweep.LogSpacedSizes(lo, n/2, points)
}

// robustnessSweep runs the Figure 2/3 experiment for one graph size:
// construct 3 independent gather trees, fail F random non-leader nodes
// before Phase II, and report the ratio of additionally lost healthy
// messages to F.
func robustnessSweep(cfg Config, r *Report, n, reps int, failures []int) asciiplot.Series {
	series := asciiplot.Series{Name: fmt.Sprintf("n=%d", n)}
	params := core.TunedMemoryParams(n)
	params.Trees = 3
	// Grid: one cell per admissible failure count.
	grid := failures[:0:0]
	for _, f := range failures {
		if f < n {
			grid = append(grid, f)
		}
	}
	type cell struct {
		row  []any
		mean float64
	}
	cells := runner.Map(cfg.Workers, grid, func(_ int, f int) cell {
		var lost float64
		acc := sweep.Repeat(reps, func(rep int) float64 {
			g := paperGraph(cfg, n, rep)
			res := core.MemoryRobustness(g, params, runSeed(cfg, n, rep, 30+f), f)
			lost += float64(res.LostAdditional) / float64(reps)
			return res.Ratio
		})
		return cell{
			row:  []any{n, f, acc.Mean(), fmt.Sprintf("%.3f", acc.CI95()), lost},
			mean: acc.Mean(),
		}
	})
	for i, f := range grid {
		r.Table.AddRow(cells[i].row...)
		series.Xs = append(series.Xs, float64(f))
		series.Ys = append(series.Ys, cells[i].mean)
	}
	return series
}

// Figure2 reproduces Figure 2: the relative number of additional message
// losses in the memory model on one large graph. The paper uses n = 10⁶
// (expected degree log²n ≈ 400); the default here is n = 10⁵ — the
// experiment is O(n) thanks to the structural gather, and the ratio curve
// shape is size-stable (Figure 3 is the same study at smaller n, which the
// paper itself uses to make that point). Pass Sizes to raise n.
func Figure2(cfg Config) *Report {
	sizes := cfg.sizes([]int{100000}, []int{20000})
	n := sizes[0]
	reps := cfg.reps(3, 2)
	failures := cfg.Failures
	if len(failures) == 0 {
		points := 10
		if cfg.Quick {
			points = 6
		}
		failures = defaultFailureGrid(n, points)
	}

	r := &Report{
		ID:    "figure2",
		Title: fmt.Sprintf("additional node failures in the memory model, n=%d, 3 trees", n),
		Table: sweep.Table{
			Columns: []string{"n", "F", "ratio", "±", "lost_mean"},
		},
		PlotOpts: asciiplot.Options{
			LogX: true, ZeroY: true,
			Title:  "Figure 2: additional lost messages / F",
			XLabel: "failed nodes F (log scale)",
		},
		Notes: []string{
			"paper (n=10⁶): ratio stays in [0, ~2.5]; zero means no healthy message was lost beyond the F failed ones",
			"failures are injected after Phase I and before Phase II, leader excluded (DESIGN.md §3)",
		},
	}
	r.Series = []asciiplot.Series{robustnessSweep(cfg, r, n, reps, failures)}
	return r
}

// Figure3 reproduces Figure 3: the Figure 2 study at two smaller graph
// sizes (paper: 10⁵ and 5·10⁵; defaults here 2·10⁴ and 5·10⁴).
func Figure3(cfg Config) *Report {
	sizes := cfg.sizes([]int{20000, 50000}, []int{5000, 10000})
	reps := cfg.reps(3, 2)

	r := &Report{
		ID:    "figure3",
		Title: "additional node failures in the memory model at two graph sizes, 3 trees",
		Table: sweep.Table{
			Columns: []string{"n", "F", "ratio", "±", "lost_mean"},
		},
		PlotOpts: asciiplot.Options{
			LogX: true, ZeroY: true,
			Title:  "Figure 3: additional lost messages / F",
			XLabel: "failed nodes F (log scale)",
		},
		Notes: []string{
			"paper: same envelope as Figure 2 at both sizes — the loss ratio is insensitive to n",
		},
	}
	for _, n := range sizes {
		failures := cfg.Failures
		if len(failures) == 0 {
			points := 8
			if cfg.Quick {
				points = 5
			}
			failures = defaultFailureGrid(n, points)
		}
		r.Series = append(r.Series, robustnessSweep(cfg, r, n, reps, failures))
	}
	return r
}

// Figure5 reproduces Figure 5: for two graph sizes and a linear grid of
// failure counts, the percentage of runs in which MORE than T additional
// healthy messages were lost, for T = 0, 10, 100 (top/middle/bottom rows
// of the paper's figure).
func Figure5(cfg Config) *Report {
	sizes := cfg.sizes([]int{20000, 50000}, []int{5000, 10000})
	reps := cfg.reps(5, 3)
	thresholds := []int{0, 10, 100}

	r := &Report{
		ID:    "figure5",
		Title: "fraction of runs with more than T additional losses",
		Table: sweep.Table{
			Columns: []string{"n", "F", ">0", ">10", ">100"},
		},
		PlotOpts: asciiplot.Options{
			ZeroY:  true,
			Title:  "Figure 5: share of runs with >T additional losses (T=0 series)",
			XLabel: "failed nodes F",
		},
		Notes: []string{
			"paper: even thousands of failures rarely lose more than a handful of additional messages; the >100 series stays at 0 far past F where >0 saturates",
		},
	}

	for _, n := range sizes {
		failures := cfg.Failures
		if len(failures) == 0 {
			// A fine grid through the transition region: the >0 series
			// saturates around F ≈ n/20 with 3 trees while >100 stays at
			// zero much longer (the paper's Figure 5 contrast).
			step := max(1, n/40)
			for f := 0; f <= n/4; f += step {
				failures = append(failures, f)
			}
		}
		params := core.TunedMemoryParams(n)
		params.Trees = 3
		series := asciiplot.Series{Name: fmt.Sprintf("n=%d T=0", n)}
		grid := failures[:0:0]
		for _, f := range failures {
			if f < n {
				grid = append(grid, f)
			}
		}
		fracs := runner.Map(cfg.Workers, grid, func(_ int, f int) [3]float64 {
			exceed := make([]int, len(thresholds))
			for rep := 0; rep < reps; rep++ {
				g := paperGraph(cfg, n, rep)
				res := core.MemoryRobustness(g, params, runSeed(cfg, n, rep, 50+f), f)
				for ti, T := range thresholds {
					if res.LostAdditional > T {
						exceed[ti]++
					}
				}
			}
			frac := func(ti int) float64 { return float64(exceed[ti]) / float64(reps) }
			return [3]float64{frac(0), frac(1), frac(2)}
		})
		for i, f := range grid {
			r.Table.AddRow(n, f, fracs[i][0], fracs[i][1], fracs[i][2])
			series.Xs = append(series.Xs, float64(f))
			series.Ys = append(series.Ys, fracs[i][0])
		}
		r.Series = append(r.Series, series)
	}
	return r
}
