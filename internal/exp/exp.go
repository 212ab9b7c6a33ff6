// Package exp defines the reproduction experiments: one constructor per
// table and figure of the paper's evaluation section (§5, Appendix C) plus
// the ablation studies; the Experiments table lists them. Each experiment
// declares its evaluation grid as a list of cells and executes them through
// the internal/runner sweep engine (cells in parallel on a bounded pool,
// repetitions sequential within a cell, all randomness derived from the
// master seed), then assembles the results — in declaration order, so
// output is byte-identical at any worker count — into a Report that
// renders as an aligned table and an ASCII plot and can be exported as
// CSV; cmd/figures and the root bench harness both consume them.
package exp

import (
	"fmt"
	"io"

	"gossip/internal/asciiplot"
	"gossip/internal/graph"
	"gossip/internal/sweep"
	"gossip/internal/xrand"
)

// Config scales and seeds an experiment. The zero value (plus a Seed) is
// the laptop-default scale (the first list of each experiment's cfg.sizes
// call); Quick shrinks the grids for benchmarks and smoke tests.
type Config struct {
	// Seed is the master seed; every graph and run derives its stream from
	// it, so a Config reproduces bit-identical numbers.
	Seed uint64
	// Reps overrides the per-point repetition count (0 = experiment default).
	Reps int
	// Sizes overrides the graph-size grid (nil = experiment default).
	Sizes []int
	// Failures overrides the failure-count grid of the robustness figures.
	Failures []int
	// Quick shrinks grids to bench/smoke scale.
	Quick bool
	// Workers bounds the scenario-sweep worker pool that executes grid
	// cells (<= 0 uses GOMAXPROCS). Results are identical for any value:
	// every cell derives its randomness from (Seed, n, rep) alone.
	Workers int
}

func (c Config) reps(def, quickDef int) int {
	if c.Reps > 0 {
		return c.Reps
	}
	if c.Quick {
		return quickDef
	}
	return def
}

func (c Config) sizes(def, quickDef []int) []int {
	if len(c.Sizes) > 0 {
		return c.Sizes
	}
	if c.Quick {
		return quickDef
	}
	return def
}

// Seed-stream tags for deriving independent randomness per purpose.
const (
	tagGraph = 0x67726170 // "grap"
	tagRun   = 0x72756e21 // "run!"
)

// testGraph builds the §5 network: G(n, log²n/n), seeded per (experiment
// seed, n, rep).
func paperGraph(cfg Config, n, rep int) *graph.Graph {
	seed := xrand.SeedFor(cfg.Seed, tagGraph, uint64(n), uint64(rep))
	return graph.ErdosRenyi(n, graph.PLogSquared(n), xrand.New(seed))
}

// runSeed derives the algorithm seed for (n, rep, variant).
func runSeed(cfg Config, n, rep, variant int) uint64 {
	return xrand.SeedFor(cfg.Seed, tagRun, uint64(n), uint64(rep), uint64(variant))
}

// Experiments declares every experiment once, in the order `figures -exp
// all` runs them: the paper's table and figures first, then the ablations.
var Experiments = []struct {
	ID  string
	Run func(Config) *Report
}{
	{"table1", Table1},
	{"figure1", Figure1},
	{"figure2", Figure2},
	{"figure3", Figure3},
	{"figure4", Figure4},
	{"figure5", Figure5},
	{"ablation_density", AblationDensity},
	{"ablation_walkprob", AblationWalkProb},
	{"ablation_memslots", AblationMemorySlots},
	{"ablation_trees", AblationTrees},
	{"ablation_broadcast", AblationBroadcast},
	{"ablation_complete", AblationComplete},
	{"ablation_mediancounter", AblationMedianCounter},
	{"ablation_tradeoff", AblationTradeoff},
}

// Report is a rendered experiment.
type Report struct {
	ID    string // e.g. "figure1"
	Title string
	Table sweep.Table
	// Series drive the ASCII plot; PlotOpts configure it.
	Series   []asciiplot.Series
	PlotOpts asciiplot.Options
	Notes    []string
}

// Render writes the table, the plot and the notes.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n\n", r.ID, r.Title)
	r.Table.Render(w)
	if len(r.Series) > 0 {
		fmt.Fprintln(w)
		asciiplot.Render(w, r.Series, r.PlotOpts)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV exports the table as <dir>/<ID>.csv.
func (r *Report) WriteCSV(dir string) error {
	return r.Table.WriteCSV(dir, r.ID)
}
