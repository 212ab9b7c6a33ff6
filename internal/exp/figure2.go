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

// failureSweep runs the §5 robustness experiment at one graph size:
// construct 3 independent gather trees, fail F random non-leader nodes
// before Phase II, and observe the additionally lost healthy messages —
// their count, their ratio to F, and whether they exceed each threshold of
// Figure 5. The failure counts are cfg.Failures, or def when that is unset;
// counts that do not leave a healthy node are skipped. Run seeds are
// variant+F.
func failureSweep(cfg Config, n, reps, variant int, def []int) (grid []int, cells []cell) {
	failures := cfg.Failures
	if len(failures) == 0 {
		failures = def
	}
	for _, f := range failures {
		if f < n {
			grid = append(grid, f)
		}
	}
	params := core.TunedMemoryParams(n)
	params.Trees = 3
	return grid, measure(cfg, grid, reps, func(f, rep int) runner.Metrics {
		res := core.MemoryRobustness(paperGraph(cfg, n, rep), params, runSeed(cfg, n, rep, variant+f), f)
		return runner.Metrics{
			"ratio": res.Ratio, "lost": float64(res.LostAdditional),
			">0": flag(res.LostAdditional > 0), ">10": flag(res.LostAdditional > 10), ">100": flag(res.LostAdditional > 100),
		}
	})
}

// lossRatio fills the table and the series of Figures 2 and 3: one
// failure sweep per graph size, on a log-spaced grid of points counts.
func lossRatio(cfg Config, r *Report, sizes []int, points int) {
	for _, n := range sizes {
		grid, cells := failureSweep(cfg, n, cfg.reps(3, 2), 30, defaultFailureGrid(n, points))
		for i, f := range grid {
			r.Table.AddRow(n, f, cells[i].mean("ratio"), cells[i].ci("ratio", 3), cells[i].mean("lost"))
		}
		r.Series = append(r.Series, series(fmt.Sprintf("n=%d", n), "ratio", floats(grid), cells))
	}
}

// Figure2 reproduces Figure 2: the relative number of additional message
// losses in the memory model on one large graph. The paper uses n = 10⁶
// (expected degree log²n ≈ 400); the default here is n = 10⁵ — the
// experiment is O(n) thanks to the structural gather, and the ratio curve
// shape is size-stable (Figure 3 is the same study at smaller n, which the
// paper itself uses to make that point). Pass Sizes to raise n.
func Figure2(cfg Config) *Report {
	n := cfg.size(100000, 20000)

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
	lossRatio(cfg, r, []int{n}, cfg.pick(10, 6))
	return r
}

// Figure3 reproduces Figure 3: the Figure 2 study at two smaller graph
// sizes (paper: 10⁵ and 5·10⁵; defaults here 2·10⁴ and 5·10⁴).
func Figure3(cfg Config) *Report {
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
	lossRatio(cfg, r, cfg.sizes([]int{20000, 50000}, []int{5000, 10000}), cfg.pick(8, 5))
	return r
}

// Figure5 reproduces Figure 5: for two graph sizes and a linear grid of
// failure counts, the percentage of runs in which MORE than T additional
// healthy messages were lost, for T = 0, 10, 100 (top/middle/bottom rows
// of the paper's figure).
func Figure5(cfg Config) *Report {
	sizes := cfg.sizes([]int{20000, 50000}, []int{5000, 10000})
	reps := cfg.reps(5, 3)

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
		// A fine grid through the transition region: the >0 series
		// saturates around F ≈ n/20 with 3 trees while >100 stays at
		// zero much longer (the paper's Figure 5 contrast).
		var linear []int
		for f := 0; f <= n/4; f += max(1, n/40) {
			linear = append(linear, f)
		}
		grid, cells := failureSweep(cfg, n, reps, 50, linear)
		for i, f := range grid {
			r.Table.AddRow(n, f, cells[i].mean(">0"), cells[i].mean(">10"), cells[i].mean(">100"))
		}
		r.Series = append(r.Series, series(fmt.Sprintf("n=%d T=0", n), ">0", floats(grid), cells))
	}
	return r
}
