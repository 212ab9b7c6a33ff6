package exp

import (
	"fmt"

	"gossip/internal/asciiplot"
	"gossip/internal/core"
	"gossip/internal/runner"
	"gossip/internal/sweep"
)

// Figure1 reproduces Figure 1: the average number of messages sent per
// node for the simple push–pull baseline, Algorithm 1 (fast-gossiping) and
// Algorithm 2 (memory model), on G(n, log²n/n), as a function of the graph
// size. The paper sweeps 10³–10⁶; the exact n² message tracking bounds the
// default grid at 32768 (the claims are about shape, which is
// established well before that point). Algorithm 2 runs with a
// given leader, matching the flat ≈5-messages series of the paper.
func Figure1(cfg Config) *Report {
	sizes := cfg.sizes(
		[]int{1024, 2048, 4096, 8192, 16384, 32768},
		[]int{1024, 4096, 16384},
	)
	reps := cfg.reps(3, 2)

	r := &Report{
		ID:    "figure1",
		Title: "communication overhead of the gossiping methods (messages per node vs n)",
		Table: sweep.Table{
			Columns: []string{"n", "pushpull", "±", "fastgossip", "±", "memory", "±",
				"pp_steps", "fg_steps", "mem_steps"},
		},
		PlotOpts: asciiplot.Options{
			LogX: true, ZeroY: true,
			Title:  "Figure 1: avg messages sent per node",
			XLabel: "graph size n (log scale)",
		},
		Notes: []string{
			"paper: PushPull grows ~log n; FastGossiping below it with a widening gap; Memory bounded by ~5, flat in n",
			"metric: data-carrying channel uses per node (push-pull exchange counted once); see DESIGN.md §3",
		},
	}

	pp := asciiplot.Series{Name: "PushPull"}
	fg := asciiplot.Series{Name: "FastGossiping"}
	mm := asciiplot.Series{Name: "Memory"}

	// Grid: one cell per graph size, three algorithm variants per cell.
	type cell struct {
		row        []any
		pp, fg, mm float64
	}
	cells := runner.Map(cfg.Workers, sizes, func(_ int, n int) cell {
		var ppSteps, fgSteps, mmSteps float64
		run := func(algo int, fn func(rep int) *core.Result) (mean, ci float64, steps float64) {
			acc := sweep.Repeat(reps, func(rep int) float64 {
				res := fn(rep)
				steps += float64(res.Steps) / float64(reps)
				return res.TransmissionsPerNode()
			})
			return acc.Mean(), acc.CI95(), steps
		}
		var ppm, ppc, fgm, fgc, mmm, mmc float64
		ppm, ppc, ppSteps = run(0, func(rep int) *core.Result {
			return core.PushPull(paperGraph(cfg, n, rep), runSeed(cfg, n, rep, 0), 0)
		})
		fgm, fgc, fgSteps = run(1, func(rep int) *core.Result {
			return core.FastGossip(paperGraph(cfg, n, rep), core.TunedFastGossipParams(n), runSeed(cfg, n, rep, 1))
		})
		mmm, mmc, mmSteps = run(2, func(rep int) *core.Result {
			return core.MemoryGossip(paperGraph(cfg, n, rep), core.TunedMemoryParams(n), runSeed(cfg, n, rep, 2), -1)
		})
		return cell{
			row: []any{n, ppm, fmt.Sprintf("%.2f", ppc), fgm, fmt.Sprintf("%.2f", fgc),
				mmm, fmt.Sprintf("%.2f", mmc), ppSteps, fgSteps, mmSteps},
			pp: ppm, fg: fgm, mm: mmm,
		}
	})
	for i, n := range sizes {
		c := cells[i]
		r.Table.AddRow(c.row...)
		x := float64(n)
		pp.Xs, pp.Ys = append(pp.Xs, x), append(pp.Ys, c.pp)
		fg.Xs, fg.Ys = append(fg.Xs, x), append(fg.Ys, c.fg)
		mm.Xs, mm.Ys = append(mm.Xs, x), append(mm.Ys, c.mm)
	}
	r.Series = []asciiplot.Series{pp, fg, mm}
	return r
}

// Figure4 reproduces Figure 4: the Figure 1 FastGossiping series on a
// dense size grid, showing the jumps where a schedule ceiling increments
// and the decline between jumps (the relative number of random walks,
// n·(1/log n), shrinks while the step counts stay fixed).
func Figure4(cfg Config) *Report {
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		lo, hi, step := 8192, 32768, 2048
		if cfg.Quick {
			lo, hi, step = 4096, 16384, 4096
		}
		for n := lo; n <= hi; n += step {
			sizes = append(sizes, n)
		}
	}
	reps := cfg.reps(3, 2)

	r := &Report{
		ID:    "figure4",
		Title: "detailed view of the FastGossiping series (messages per node vs n)",
		Table: sweep.Table{
			Columns: []string{"n", "fastgossip", "±", "steps", "walks_per_node"},
		},
		PlotOpts: asciiplot.Options{
			LogX:   true,
			Title:  "Figure 4: FastGossiping messages per node (dense grid)",
			XLabel: "graph size n (log scale)",
		},
		Notes: []string{
			"paper: sawtooth — jumps when a ⌈·⌉ schedule length increments, decline in between as the walk population n/log n thins per node",
		},
	}
	fg := asciiplot.Series{Name: "FastGossiping"}
	type cell struct {
		row  []any
		mean float64
	}
	cells := runner.Map(cfg.Workers, sizes, func(_ int, n int) cell {
		var steps float64
		acc := sweep.Repeat(reps, func(rep int) float64 {
			res := core.FastGossip(paperGraph(cfg, n, rep), core.TunedFastGossipParams(n), runSeed(cfg, n, rep, 1))
			steps += float64(res.Steps) / float64(reps)
			return res.TransmissionsPerNode()
		})
		p := core.TunedFastGossipParams(n)
		return cell{
			row: []any{n, acc.Mean(), fmt.Sprintf("%.2f", acc.CI95()), steps,
				p.WalkProb * float64(p.Rounds)},
			mean: acc.Mean(),
		}
	})
	for i, n := range sizes {
		r.Table.AddRow(cells[i].row...)
		fg.Xs = append(fg.Xs, float64(n))
		fg.Ys = append(fg.Ys, cells[i].mean)
	}
	r.Series = []asciiplot.Series{fg}
	return r
}
