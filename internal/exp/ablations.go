package exp

import (
	"fmt"

	"gossip/internal/asciiplot"
	"gossip/internal/core"
	"gossip/internal/graph"
	"gossip/internal/runner"
	"gossip/internal/sweep"
	"gossip/internal/xrand"
)

// AblationDensity is the study behind the paper's title: how does the
// graph density affect the gossiping algorithms? It sweeps the expected
// degree d = logᵉn for e ∈ {1.5, 2, 2.5, 3} on G(n,p) plus a random
// d-regular graph at e = 2, and reports messages per node and rounds for
// all three algorithms. The paper's analytical claim — unlike broadcasting,
// gossiping's message complexity does not deteriorate on sparse random
// graphs — shows up as near-flat rows.
func AblationDensity(cfg Config) *Report {
	n := cfg.size(16384, 4096)
	reps := cfg.reps(3, 2)
	exponents := []float64{1.5, 2.0, 2.5, 3.0}

	r := &Report{
		ID:    "ablation_density",
		Title: fmt.Sprintf("influence of graph density, n=%d (messages per node and steps vs expected degree)", n),
		Table: sweep.Table{
			Columns: []string{"model", "exp_degree", "pushpull", "fastgossip", "memory",
				"pp_steps", "fg_steps"},
		},
		PlotOpts: asciiplot.Options{
			LogX: true, ZeroY: true,
			Title:  "density ablation: messages per node vs expected degree",
			XLabel: "expected degree (log scale)",
		},
		Notes: []string{
			"paper claim: gossiping message complexity is density-insensitive once d = Ω(log^{2+ε} n) — compare against the broadcast ablation where density matters",
		},
	}

	// Grid: one cell per density point (four G(n,p) exponents plus the
	// configuration-model comparison at the paper's density).
	type point struct {
		model  string
		degree float64
		mk     func(rep int) *graph.Graph
	}
	var grid []point
	for _, e := range exponents {
		p := graph.PLogPow(n, e)
		degree := p * float64(n-1)
		e := e
		grid = append(grid, point{fmt.Sprintf("G(n, log^%.1f n/n)", e), degree, func(rep int) *graph.Graph {
			seed := xrand.SeedFor(cfg.Seed, tagGraph, uint64(n), uint64(rep), uint64(e*10))
			return graph.ErdosRenyi(n, p, xrand.New(seed))
		}})
	}
	d := int(graph.PLogSquared(n) * float64(n))
	if d%2 == 1 {
		d++
	}
	grid = append(grid, point{"random d-regular", float64(d), func(rep int) *graph.Graph {
		seed := xrand.SeedFor(cfg.Seed, tagGraph, uint64(n), uint64(rep), 9999)
		return graph.ConfigurationModel(n, d, xrand.New(seed))
	}})

	cells := measure(cfg, grid, reps, func(pt point, rep int) runner.Metrics {
		return gossipTrio(cfg, pt.mk(rep), rep, 70)
	})
	xs := make([]float64, len(grid))
	for i, pt := range grid {
		c := cells[i]
		r.Table.AddRow(pt.model, pt.degree, c.mean("pp"), c.mean("fg"), c.mean("mm"), c.mean("pp_steps"), c.mean("fg_steps"))
		xs[i] = pt.degree
	}
	r.Series = []asciiplot.Series{
		series("PushPull", "pp", xs, cells),
		series("FastGossiping", "fg", xs, cells),
		series("Memory", "mm", xs, cells),
	}
	return r
}

// AblationWalkProb sweeps the random-walk start probability ℓ/log n of
// Algorithm 1 Phase II. More walks cost more Phase II messages but shrink
// the Phase III cleanup; the tuned ℓ = 1 sits near the knee.
func AblationWalkProb(cfg Config) *Report {
	n := cfg.size(16384, 4096)
	reps := cfg.reps(3, 2)
	factors := []float64{0.25, 0.5, 1, 2, 4}

	r := &Report{
		ID:    "ablation_walkprob",
		Title: fmt.Sprintf("Algorithm 1 walk probability ℓ/log n, n=%d", n),
		Table: sweep.Table{
			Columns: []string{"ell", "msgs_per_node", "walk_msgs_per_node", "phase3_steps", "total_steps"},
		},
		PlotOpts: asciiplot.Options{
			LogX: true, ZeroY: true,
			Title:  "walk-probability ablation: messages per node vs ℓ",
			XLabel: "ℓ (walk probability factor, log scale)",
		},
		Notes: []string{
			"the Table 1 tuning uses ℓ = 1; the message/time trade-off bends on both sides",
		},
	}
	cells := measure(cfg, factors, reps, func(ell float64, rep int) runner.Metrics {
		params := core.TunedFastGossipParams(n)
		params.WalkProb = ell / core.Logn(n)
		res := core.FastGossip(paperGraph(cfg, n, rep), params, runSeed(cfg, n, rep, 80))
		return runner.Metrics{
			"msgs":      res.TransmissionsPerNode(),
			"walk_msgs": float64(res.Phases[1].Meter.Transmissions) / float64(n),
			"p3_steps":  float64(res.Phases[2].Meter.Steps),
			"steps":     float64(res.Steps),
		}
	})
	for i, ell := range factors {
		c := cells[i]
		r.Table.AddRow(ell, c.mean("msgs"), c.mean("walk_msgs"), c.mean("p3_steps"), c.mean("steps"))
	}
	r.Series = []asciiplot.Series{series("FastGossiping", "msgs", factors, cells)}
	return r
}

// AblationMemorySlots varies the per-node link memory of Algorithm 2
// (the paper fixes 4 slots; §4 notes even avoiding 3 previous choices
// suffices for the broadcast lemmas it reuses).
func AblationMemorySlots(cfg Config) *Report {
	n := cfg.size(16384, 4096)
	reps := cfg.reps(3, 2)

	r := &Report{
		ID:    "ablation_memslots",
		Title: fmt.Sprintf("Algorithm 2 link-memory size, n=%d", n),
		Table: sweep.Table{
			Columns: []string{"slots", "msgs_per_node", "opened_per_node", "completed"},
		},
		Notes: []string{
			"fewer slots allow repeat contacts during a long-step, wasting pushes; 4 slots guarantee 4 distinct children",
		},
	}
	slots := []int{1, 2, 3, 4}
	cells := measure(cfg, slots, reps, func(m, rep int) runner.Metrics {
		params := core.TunedMemoryParams(n)
		params.MemSlots = m
		res := core.MemoryGossip(paperGraph(cfg, n, rep), params, runSeed(cfg, n, rep, 90), -1)
		return runner.Metrics{"msgs": res.TransmissionsPerNode(), "opened": res.OpenedPerNode(), "completed": flag(res.Completed)}
	})
	for i, m := range slots {
		r.Table.AddRow(m, cells[i].mean("msgs"), cells[i].mean("opened"), cells[i].all("completed"))
	}
	return r
}

// AblationTrees varies the number of independent gather trees against a
// fixed failure count — the redundancy knob of the §5 robustness study.
func AblationTrees(cfg Config) *Report {
	n := cfg.size(20000, 5000)
	reps := cfg.reps(5, 3)
	f := n / 20

	r := &Report{
		ID:    "ablation_trees",
		Title: fmt.Sprintf("independent trees vs failure tolerance, n=%d, F=%d", n, f),
		Table: sweep.Table{
			Columns: []string{"trees", "lost_mean", "ratio_mean", "ratio_max"},
		},
		Notes: []string{
			"the paper's robustness simulation uses 3 trees; Theorem 3 proves two independent runs already bound losses to |f|(1+o(1))",
		},
	}
	trees := []int{1, 2, 3, 4}
	cells := measure(cfg, trees, reps, func(t, rep int) runner.Metrics {
		params := core.TunedMemoryParams(n)
		params.Trees = t
		res := core.MemoryRobustness(paperGraph(cfg, n, rep), params, runSeed(cfg, n, rep, 100), f)
		return runner.Metrics{"lost": float64(res.LostAdditional), "ratio": res.Ratio}
	})
	for i, t := range trees {
		r.Table.AddRow(t, cells[i].mean("lost"), cells[i].mean("ratio"), cells[i]["ratio"].Max())
	}
	return r
}

// AblationBroadcast runs the single-message broadcast baselines (push,
// pull, push–pull) across densities — the context results ([34], [19])
// against which the paper positions gossiping: for broadcasting, density
// does matter.
func AblationBroadcast(cfg Config) *Report {
	n := cfg.size(16384, 4096)
	reps := cfg.reps(3, 2)
	exponents := []float64{1.5, 2.0, 3.0}

	r := &Report{
		ID:    "ablation_broadcast",
		Title: fmt.Sprintf("single-message broadcast baselines across density, n=%d", n),
		Table: sweep.Table{
			Columns: []string{"density", "mode", "rounds", "transmissions_per_node"},
		},
		Notes: []string{
			"push-only transmissions stay Θ(n·log n) regardless of density; push-pull rounds shrink with density but its sparse-graph message complexity cannot reach the complete-graph O(n·loglog n) ([19])",
		},
	}
	// Grid: density × broadcast mode, modes innermost.
	type point struct {
		e    float64
		mode core.BroadcastMode
	}
	var grid []point
	for _, e := range exponents {
		for _, mode := range []core.BroadcastMode{core.PushOnly, core.PullOnly, core.PushAndPull} {
			grid = append(grid, point{e, mode})
		}
	}
	cells := measure(cfg, grid, reps, func(pt point, rep int) runner.Metrics {
		seed := xrand.SeedFor(cfg.Seed, tagGraph, uint64(n), uint64(rep), uint64(pt.e*100))
		g := graph.ErdosRenyi(n, graph.PLogPow(n, pt.e), xrand.New(seed))
		res := core.Broadcast(g, 0, pt.mode, runSeed(cfg, n, rep, 110+int(pt.mode)), 0)
		return runner.Metrics{"rounds": float64(res.Steps), "msgs": float64(res.Transmissions) / float64(n)}
	})
	for i, pt := range grid {
		r.Table.AddRow(fmt.Sprintf("log^%.1f n", pt.e), pt.mode.String(), cells[i].mean("rounds"), cells[i].mean("msgs"))
	}
	return r
}
