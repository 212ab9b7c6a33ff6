// Regression gate — the corpus as CI infrastructure: archive a
// reference sweep once, then diff every candidate build against it and
// fail the pipeline when a metric drifts out of tolerance.
//
// The demo plays both sides. It archives a baseline run into a corpus,
// replays the identical configuration (same grid, same master seed) and
// shows the gate passing at zero tolerance — the engine is
// deterministic, so a faithful replay is bit-identical. Then it
// compares against a different-seed run, standing in for a code change
// that altered the dynamics, and shows the per-metric verdict table a
// failing gate prints.
//
//	go run ./examples/regressiongate
//
// The equivalent command-line gate (what .github/workflows/ci.yml runs
// against the committed reference under testdata/):
//
//	gossipsim sweep -out baseline ... && gossipsim archive -dir corpus -add baseline
//	gossipsim sweep -out candidate ...
//	gossipsim compare corpus/<id> candidate || exit 1
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"gossip/internal/corpus"
	"gossip/internal/runner"
)

func main() {
	work, err := os.MkdirTemp("", "regressiongate")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)

	grid := runner.Grid{
		Algos:     []string{"pushpull", "sampled"},
		Models:    []string{"er"},
		Sizes:     []int{256, 512},
		Densities: []float64{0.5, 1, 2},
		Reps:      3,
		Seed:      1,
	}

	// 1. Archive the baseline. The run ID is content-addressed from the
	// configuration, so the corpus would dedupe a re-archive.
	baseline, recs, err := corpus.ExecuteRun(filepath.Join(work, "baseline"), grid, 0, false, nil)
	if err != nil {
		fatal(err)
	}
	store, err := corpus.Open(filepath.Join(work, "corpus"))
	if err != nil {
		fatal(err)
	}
	imported, err := store.Import(baseline, "")
	if err != nil {
		fatal(err)
	}
	stored := imported.Run
	fmt.Printf("archived baseline %s (%d cells)\n\n", stored.Label(), len(recs))

	// 2. The candidate build replays the same configuration. Zero
	// tolerance: only bit-equal means pass — and they do.
	candidate, _, err := corpus.ExecuteRun(filepath.Join(work, "candidate"), grid, 0, false, nil)
	if err != nil {
		fatal(err)
	}
	cmp, err := corpus.CompareRuns(stored, candidate, corpus.Tolerance{})
	if err != nil {
		fatal(err)
	}
	fmt.Println("gate 1 — faithful replay at zero tolerance:")
	fmt.Printf("  %s\n\n", cmp.Summary())

	// 3. A "regressed" build: a different seed stands in for changed
	// dynamics. The gate prints its verdict table and would exit 1.
	drifted := grid
	drifted.Seed = 2
	bad, _, err := corpus.ExecuteRun(filepath.Join(work, "drifted"), drifted, 0, false, nil)
	if err != nil {
		fatal(err)
	}
	// Compare cell records directly: the runs have different IDs (the
	// seed is part of the configuration), but their cells join on grid
	// coordinates.
	badRecs, err := bad.Records()
	if err != nil {
		fatal(err)
	}
	baseRecs, err := stored.Records()
	if err != nil {
		fatal(err)
	}
	cmp = corpus.Compare(baseRecs, badRecs, corpus.Tolerance{Rel: 0.02})
	fmt.Println("gate 2 — changed dynamics at 2% relative tolerance:")
	cmp.Table().Render(os.Stdout)
	fmt.Printf("  %s\n", cmp.Summary())
	if cmp.Regressed() {
		fmt.Println("  (a CI gate would exit 1 here)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
