// Package runner is the declarative scenario-sweep engine behind every
// experiment in this module. A Scenario names one cell of the paper's
// evaluation grid (algorithm × graph model × density × size × failure
// count, replicated over seeds); a Grid expands cross-products of those
// dimensions into a work list; a Runner executes cells on a bounded worker
// pool with deterministic per-cell seeds derived from the master seed and
// the cell index, so results are bit-identical at any parallelism. Results
// aggregate into stats.Acc per named metric and render as sweep.Tables,
// CSV, or a JSON-lines stream for downstream tooling.
//
// The engine has two layers. Map (a deterministic parallel map over
// arbitrary cells) and Accumulate (a cell's repetition loop) are the
// substrate, which internal/exp's measure also runs its figure and
// ablation grids on. Runner/Grid/Scenario is the declarative layer that
// `gossipsim sweep` exposes on the command line.
package runner

import (
	"runtime"
	"sync"

	"gossip/internal/stats"
	"gossip/internal/xrand"
)

// tagCell tags the seed stream that fans the master seed out into
// per-(cell, rep) run seeds ("cell").
const tagCell = 0x63656c6c

// Map applies fn to every cell on a bounded worker pool and returns the
// results in cell order. workers <= 0 uses GOMAXPROCS. fn must be safe for
// concurrent use with distinct indices (the experiment cells are: each
// cell builds its own graphs and RNG streams from its own seeds), and must
// not depend on execution order, so the result is deterministic for any
// worker count. This is the same discipline as internal/par, lifted from
// node ranges to experiment cells.
func Map[C, R any](workers int, cells []C, fn func(index int, cell C) R) []R {
	out := make([]R, len(cells))
	if len(cells) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for i, c := range cells {
			out[i] = fn(i, c)
		}
		return out
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(i, cells[i])
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// Metrics is one repetition's named observations (e.g. "msgs_per_node",
// "steps"). Keys must not vary across repetitions of the same scenario.
type Metrics map[string]float64

// Accumulate runs fn(rep) for rep = 0…reps-1, in that order, and folds
// each repetition's observations into one accumulator per name. It is the
// repetition loop of every cell, the sweep's and the figures' alike.
func Accumulate(reps int, fn func(rep int) Metrics) map[string]*stats.Acc {
	accs := map[string]*stats.Acc{}
	for rep := 0; rep < reps; rep++ {
		for k, v := range fn(rep) {
			a, ok := accs[k]
			if !ok {
				a = &stats.Acc{}
				accs[k] = a
			}
			a.Add(v)
		}
	}
	return accs
}

// ExecFunc runs one repetition of one scenario. seed is the derived
// per-(cell, rep) seed; implementations must draw all randomness from it.
type ExecFunc func(s Scenario, rep int, seed uint64) Metrics

// CellResult aggregates all repetitions of one scenario.
type CellResult struct {
	Scenario Scenario
	// Metrics maps each observation name to its accumulator over reps.
	Metrics map[string]*stats.Acc
}

// Runner executes scenario cells on a bounded worker pool.
type Runner struct {
	// Workers bounds the pool; <= 0 uses GOMAXPROCS.
	Workers int
	// Seed is the master seed; per-(cell, rep) seeds derive from it and
	// the cell index, so a (Seed, Grid) pair reproduces bit-identical
	// results at any worker count.
	Seed uint64
	// Exec runs one repetition. Nil selects Execute, the standard
	// simulator dispatch.
	Exec ExecFunc
	// OnCell, if non-nil, is invoked once per completed cell as it
	// finishes. Invocations are serialized by the runner but arrive in
	// completion order, which depends on scheduling — pair it with an
	// OrderedJSONL (or the corpus writer) to re-establish cell order.
	OnCell func(CellResult)
	// Skip, if non-nil, marks cells as already complete (checkpoint
	// resume): they are neither executed nor reported to OnCell, and
	// their slot in Run's result carries nil Metrics. Per-cell seeds
	// derive from cell indices, so skipping a prefix leaves the
	// remaining cells' results bit-identical to an uninterrupted run.
	Skip func(Scenario) bool
}

// CellSeed returns the derived seed for repetition rep of cell index —
// the seed an ExecFunc receives.
func CellSeed(master uint64, index, rep int) uint64 {
	return xrand.SeedFor(master, tagCell, uint64(index), uint64(rep))
}

// Run executes every scenario (repetitions sequential within a cell,
// cells parallel across the pool) and returns one aggregated result per
// scenario, in scenario order. The cell index that seeds derive from is
// the scenario's position in the slice — Run stamps it into
// Scenario.Index, so hand-built lists need not (and cannot) set it.
func (r *Runner) Run(scenarios []Scenario) []CellResult {
	cells := make([]Scenario, len(scenarios))
	for i, s := range scenarios {
		s.Index = i
		cells[i] = s
	}
	return r.run(cells)
}

// run executes pre-indexed cells: per-cell seeds derive from each
// scenario's stamped Index.
func (r *Runner) run(cells []Scenario) []CellResult {
	exec := r.Exec
	if exec == nil {
		exec = Execute
	}
	var mu sync.Mutex
	return Map(r.Workers, cells, func(_ int, s Scenario) CellResult {
		if r.Skip != nil && r.Skip(s) {
			return CellResult{Scenario: s}
		}
		res := CellResult{Scenario: s, Metrics: Accumulate(max(s.Reps, 1), func(rep int) Metrics {
			return exec(s, rep, CellSeed(r.Seed, s.Index, rep))
		})}
		if r.OnCell != nil {
			mu.Lock()
			r.OnCell(res)
			mu.Unlock()
		}
		return res
	})
}

// RunGrid expands g and executes it.
func (r *Runner) RunGrid(g Grid) []CellResult {
	if r.Seed == 0 {
		r.Seed = g.Seed
	}
	return r.run(g.Scenarios())
}
