// Package exp defines the reproduction experiments: one constructor per
// table and figure of the paper's evaluation section (§5, Appendix C) plus
// the ablation studies; the Experiments table lists them and cmd/figures
// renders them. An experiment is a Report literal, a list of grid points,
// one function that runs a single repetition of a point — it builds the
// repetition's graph once and runs every algorithm of the row on it — and
// a projection of the aggregated observations into table rows and plot
// series. measure is the only loop: points in parallel on the runner's
// worker pool, a point's repetitions in order, observations accumulated
// per name by runner.Accumulate (the repetition loop of a sweep cell).
// All randomness derives from (Config.Seed, purpose, n, rep[, variant]) and
// cells come back in point order, so a report is byte-identical at any
// worker count. The declarative sweep (runner.Grid behind `gossipsim
// sweep`) is a separate path with its own seed derivation; the figures do
// not run on it.
package exp

import (
	"fmt"
	"io"

	"gossip/internal/asciiplot"
	"gossip/internal/core"
	"gossip/internal/graph"
	"gossip/internal/runner"
	"gossip/internal/stats"
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

// pick returns the default-scale value, or the Quick-scale one.
func (c Config) pick(def, quickDef int) int {
	if c.Quick {
		return quickDef
	}
	return def
}

func (c Config) reps(def, quickDef int) int {
	if c.Reps > 0 {
		return c.Reps
	}
	return c.pick(def, quickDef)
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

// size is sizes for the experiments that run at a single graph size.
func (c Config) size(def, quickDef int) int {
	return c.sizes([]int{def}, []int{quickDef})[0]
}

// Seed-stream tags for deriving independent randomness per purpose.
const (
	tagGraph = 0x67726170 // "grap"
	tagRun   = 0x72756e21 // "run!"
)

// paperGraph builds the §5 network: G(n, log²n/n), seeded per (experiment
// seed, n, rep).
func paperGraph(cfg Config, n, rep int) *graph.Graph {
	seed := xrand.SeedFor(cfg.Seed, tagGraph, uint64(n), uint64(rep))
	return graph.ErdosRenyi(n, graph.PLogSquared(n), xrand.New(seed))
}

// runSeed derives the algorithm seed for (n, rep, variant).
func runSeed(cfg Config, n, rep, variant int) uint64 {
	return xrand.SeedFor(cfg.Seed, tagRun, uint64(n), uint64(rep), uint64(variant))
}

// cell is one grid point's observations, accumulated per name over the
// point's repetitions.
type cell map[string]*stats.Acc

func (c cell) mean(k string) float64 { return c[k].Mean() }

// ci renders the 95% half-width of k to prec decimals (the "±" columns).
func (c cell) ci(k string, prec int) string { return fmt.Sprintf("%.*f", prec, c[k].CI95()) }

// all reports whether the 0/1 observation k was 1 in every repetition.
func (c cell) all(k string) bool { return c[k].Min() == 1 }

// flag is the 0/1 observation of a boolean outcome.
func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// measure runs fn(point, rep) for rep = 0…reps-1 at every point and
// returns one cell per point, in point order. Points run in parallel on
// cfg.Workers workers, so fn must draw its randomness from (point, rep)
// alone; a point's repetitions run in order on one worker.
func measure[P any](cfg Config, points []P, reps int, fn func(pt P, rep int) runner.Metrics) []cell {
	return runner.Map(cfg.Workers, points, func(_ int, pt P) cell {
		return runner.Accumulate(reps, func(rep int) runner.Metrics { return fn(pt, rep) })
	})
}

// series projects the mean of observation key at every cell into a plot
// series over xs.
func series(name, key string, xs []float64, cells []cell) asciiplot.Series {
	s := asciiplot.Series{Name: name, Xs: xs}
	for _, c := range cells {
		s.Ys = append(s.Ys, c.mean(key))
	}
	return s
}

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// gossipTrio runs the three gossiping algorithms the paper compares —
// push–pull, fast-gossiping and the memory model with a given leader, the
// latter two on their tuned schedules — on one graph, with the run seeds
// of variant, variant+1 and variant+2, and observes each one's messages
// per node and steps.
func gossipTrio(cfg Config, g *graph.Graph, rep, variant int) runner.Metrics {
	n := g.N()
	pp := core.PushPull(g, runSeed(cfg, n, rep, variant), 0)
	fg := core.FastGossip(g, core.TunedFastGossipParams(n), runSeed(cfg, n, rep, variant+1))
	mm := core.MemoryGossip(g, core.TunedMemoryParams(n), runSeed(cfg, n, rep, variant+2), -1)
	return runner.Metrics{
		"pp": pp.TransmissionsPerNode(), "pp_steps": float64(pp.Steps),
		"fg": fg.TransmissionsPerNode(), "fg_steps": float64(fg.Steps),
		"mm": mm.TransmissionsPerNode(), "mm_steps": float64(mm.Steps),
	}
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
