package exp

import (
	"fmt"

	"gossip/internal/asciiplot"
	"gossip/internal/core"
	"gossip/internal/graph"
	"gossip/internal/runner"
	"gossip/internal/sweep"
)

// AblationComplete runs the three gossiping algorithms on the complete
// graph next to G(n, log²n/n) — the paper's central message rendered as
// one table: "our results indicate that, unlike in broadcasting, there
// seems to be no significant difference between the performance of
// randomized gossiping in complete graphs and sparse random graphs" (§1).
func AblationComplete(cfg Config) *Report {
	sizes := cfg.sizes([]int{2048, 4096, 8192}, []int{1024, 2048})
	reps := cfg.reps(3, 2)

	r := &Report{
		ID:    "ablation_complete",
		Title: "complete graph K_n vs sparse random graph G(n, log²n/n)",
		Table: sweep.Table{
			Columns: []string{"n", "topology", "pushpull", "fastgossip", "memory"},
		},
		Notes: []string{
			"the abstract's claim: per-node gossiping cost is the same on K_n and on G(n, log²n/n)",
		},
	}
	// Grid: size × topology, topology innermost.
	type point struct {
		n    int
		topo string
	}
	var grid []point
	for _, n := range sizes {
		for _, topo := range []string{"complete", "G(n,log²n/n)"} {
			grid = append(grid, point{n, topo})
		}
	}
	cells := measure(cfg, grid, reps, func(pt point, rep int) runner.Metrics {
		if pt.topo == "complete" {
			return gossipTrio(cfg, graph.Complete(pt.n), rep, 120)
		}
		return gossipTrio(cfg, paperGraph(cfg, pt.n, rep), rep, 120)
	})
	for i, pt := range grid {
		r.Table.AddRow(pt.n, pt.topo, cells[i].mean("pp"), cells[i].mean("fg"), cells[i].mean("mm"))
	}
	return r
}

// AblationMedianCounter runs the Karp et al. median-counter broadcast —
// the O(n·loglog n) complete-graph result the paper contrasts against —
// across topologies and sizes. The [19] separation for sparse graphs is
// asymptotic; at simulable sizes the table shows near-identical cost, with
// the per-node cost tracking loglog n in both topologies (the n-scaling
// column makes that visible).
func AblationMedianCounter(cfg Config) *Report {
	sizes := cfg.sizes([]int{1024, 4096, 16384}, []int{1024, 4096})
	reps := cfg.reps(3, 2)

	r := &Report{
		ID:    "ablation_mediancounter",
		Title: "median-counter broadcast (Karp et al.): transmissions per node",
		Table: sweep.Table{
			Columns: []string{"n", "loglog_n", "complete", "G(n,log²n/n)", "rounds_er", "quiesced"},
		},
		PlotOpts: asciiplot.Options{
			LogX: true, ZeroY: true,
			Title:  "median-counter broadcast: transmissions per node",
			XLabel: "graph size n (log scale)",
		},
		Notes: []string{
			"self-terminating: the protocol quiesces without global knowledge",
			"per-node cost ≈ c·loglog n on both topologies; the sparse-graph lower bound of [19] separates only asymptotically",
		},
	}
	cells := measure(cfg, sizes, reps, func(n, rep int) runner.Metrics {
		params := core.DefaultMedianCounterParams(n)
		com := core.MedianCounterBroadcast(graph.Complete(n), 0, params, runSeed(cfg, n, rep, 130))
		er := core.MedianCounterBroadcast(paperGraph(cfg, n, rep), 0, params, runSeed(cfg, n, rep, 131))
		return runner.Metrics{
			"complete": float64(com.Transmissions) / float64(n),
			"er":       float64(er.Transmissions) / float64(n),
			"rounds":   float64(er.Steps),
			"quiesced": flag(com.Quiesced && er.Quiesced),
		}
	})
	for i, n := range sizes {
		c := cells[i]
		r.Table.AddRow(n, core.LogLogn(n), c.mean("complete"), c.mean("er"), c.mean("rounds"), c.all("quiesced"))
	}
	xs := floats(sizes)
	r.Series = []asciiplot.Series{series("complete", "complete", xs, cells), series("G(n,log²n/n)", "er", xs, cells)}
	return r
}

// AblationTradeoff contrasts the two ends of the time/message trade-off
// (§1.3): the O(log n)-time / Θ(n·log n)-message baseline against the
// O(log²n/loglog n)-time / O(n·log n/loglog n)-message Algorithm 1 and the
// modified-model Algorithm 2, including the memory-broadcast and median-
// counter building blocks for context.
func AblationTradeoff(cfg Config) *Report {
	n := cfg.size(16384, 4096)
	reps := cfg.reps(3, 2)

	r := &Report{
		ID:    "ablation_tradeoff",
		Title: fmt.Sprintf("time vs message trade-off, n=%d, G(n, log²n/n)", n),
		Table: sweep.Table{
			Columns: []string{"protocol", "task", "rounds", "msgs_per_node", "opened_per_node"},
		},
		Notes: []string{
			"gossiping rows: trading rounds for messages (the §1.3 positive answer); broadcast rows: the building blocks in isolation",
		},
	}

	// Grid: one cell per protocol row, each observing its rounds, messages
	// per node and openings per node on the repetition's graph.
	type protocol struct {
		name, task string
		run        func(g *graph.Graph, rep int) (steps int, transmissions, opened int64)
	}
	gossip := func(res *core.Result) (int, int64, int64) {
		return res.Steps, res.Meter.Transmissions, res.Meter.Opened
	}
	grid := []protocol{
		{"push-pull (Alg 4)", "gossip", func(g *graph.Graph, rep int) (int, int64, int64) {
			return gossip(core.PushPull(g, runSeed(cfg, n, rep, 140), 0))
		}},
		{"fast-gossiping (Alg 1, tuned)", "gossip", func(g *graph.Graph, rep int) (int, int64, int64) {
			return gossip(core.FastGossip(g, core.TunedFastGossipParams(n), runSeed(cfg, n, rep, 141)))
		}},
		{"fast-gossiping (Alg 1, theory)", "gossip", func(g *graph.Graph, rep int) (int, int64, int64) {
			return gossip(core.FastGossip(g, core.TheoryFastGossipParams(n), runSeed(cfg, n, rep, 142)))
		}},
		{"memory (Alg 2)", "gossip", func(g *graph.Graph, rep int) (int, int64, int64) {
			return gossip(core.MemoryGossip(g, core.TunedMemoryParams(n), runSeed(cfg, n, rep, 143), -1))
		}},
		{"memory broadcast ([20])", "broadcast", func(g *graph.Graph, rep int) (int, int64, int64) {
			res := core.MemoryBroadcast(g, core.TunedMemoryParams(n), 0, runSeed(cfg, n, rep, 144))
			return res.Steps, res.Transmissions, res.Opened
		}},
		{"median-counter ([34])", "broadcast", func(g *graph.Graph, rep int) (int, int64, int64) {
			res := core.MedianCounterBroadcast(g, 0, core.DefaultMedianCounterParams(n), runSeed(cfg, n, rep, 145))
			return res.Steps, res.Transmissions, res.Opened
		}},
	}
	cells := measure(cfg, grid, reps, func(p protocol, rep int) runner.Metrics {
		steps, transmissions, opened := p.run(paperGraph(cfg, n, rep), rep)
		return runner.Metrics{
			"rounds": float64(steps),
			"msgs":   float64(transmissions) / float64(n),
			"opened": float64(opened) / float64(n),
		}
	})
	for i, p := range grid {
		r.Table.AddRow(p.name, p.task, cells[i].mean("rounds"), cells[i].mean("msgs"), cells[i].mean("opened"))
	}
	return r
}
