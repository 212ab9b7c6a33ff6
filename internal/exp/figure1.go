package exp

import (
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

	cells := measure(cfg, sizes, reps, func(n, rep int) runner.Metrics {
		return gossipTrio(cfg, paperGraph(cfg, n, rep), rep, 0)
	})
	for i, n := range sizes {
		c := cells[i]
		r.Table.AddRow(n, c.mean("pp"), c.ci("pp", 2), c.mean("fg"), c.ci("fg", 2), c.mean("mm"), c.ci("mm", 2),
			c.mean("pp_steps"), c.mean("fg_steps"), c.mean("mm_steps"))
	}
	xs := floats(sizes)
	r.Series = []asciiplot.Series{
		series("PushPull", "pp", xs, cells),
		series("FastGossiping", "fg", xs, cells),
		series("Memory", "mm", xs, cells),
	}
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
	cells := measure(cfg, sizes, reps, func(n, rep int) runner.Metrics {
		res := core.FastGossip(paperGraph(cfg, n, rep), core.TunedFastGossipParams(n), runSeed(cfg, n, rep, 1))
		return runner.Metrics{"fg": res.TransmissionsPerNode(), "steps": float64(res.Steps)}
	})
	for i, n := range sizes {
		c, p := cells[i], core.TunedFastGossipParams(n)
		r.Table.AddRow(n, c.mean("fg"), c.ci("fg", 2), c.mean("steps"), p.WalkProb*float64(p.Rounds))
	}
	r.Series = []asciiplot.Series{series("FastGossiping", "fg", floats(sizes), cells)}
	return r
}
