package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"gossip/internal/corpus"
	"gossip/internal/dispatch"
)

// dispatchMain runs `gossipsim dispatch`: the sharded sweep workflow —
// m × `gossipsim sweep -shard s/m -out dir` plus a final `gossipsim
// merge` — as one command. It re-execs this binary as -shards shard
// subprocesses (at most -procs at a time), renders a per-shard progress
// line every -interval by counting completed cells in each shard's
// cells.jsonl, restarts crashed or killed shards with -resume up to
// -retries times each, merges the completed shards into a full run at
// -out (byte-identical to a single-process sweep), and optionally
// imports the merged run into a corpus with -archive.
//
//	gossipsim dispatch -shards 8 -sizes 1024..1048576 -algos sampled \
//	    -out run -archive corpus
//
// A shard that exhausts its retries fails the dispatch with exit 1 and
// that shard's stderr tail on stderr; the partial shard runs stay in
// the scratch directory, and re-running the same dispatch resumes them.
func dispatchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gossipsim dispatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var gf gridFlags
	registerGridFlags(fs, &gf)
	var (
		shards   = fs.Int("shards", 0, "number of shard subprocesses to deal the grid across (required)")
		procs    = fs.Int("procs", 0, "concurrent shard processes (0 = -shards)")
		retries  = fs.Int("retries", 2, "restarts per crashed shard (resumed from its checkpoint) before the dispatch fails")
		workers  = fs.Int("workers", 0, "per-shard worker pool size (0 = GOMAXPROCS)")
		out      = fs.String("out", "", "directory for the merged full run (required)")
		dir      = fs.String("dir", "", "scratch directory for the shard runs (default <out>.shards)")
		archive  = fs.String("archive", "", "also import the merged run into this corpus directory")
		interval = fs.Duration("interval", time.Second, "progress line period")
		quiet    = fs.Bool("q", false, "suppress the periodic progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shards < 1 || *out == "" {
		fmt.Fprintln(stderr, "usage: gossipsim dispatch -shards m -out <run-dir> [grid flags] [-procs k] [-retries r] [-dir scratch] [-archive corpus]")
		return 2
	}
	grid, err := parseGrid(gf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, fmt.Errorf("gossipsim dispatch: locate own binary: %w", err))
		return 1
	}
	scratch := *dir
	if scratch == "" {
		scratch = *out + ".shards"
	}
	cfg := dispatch.Config{
		Grid:       grid,
		Shards:     *shards,
		Procs:      *procs,
		Retries:    *retries,
		ScratchDir: scratch,
		Out:        *out,
		Command:    append([]string{exe, "sweep"}, sweepArgs(gf, *workers)...),
		Interval:   *interval,
	}
	if !*quiet {
		cfg.Progress = stderr
	}
	run, shardStatus, err := dispatch.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	restarts := 0
	for _, st := range shardStatus {
		restarts += st.Restarts
	}
	fmt.Fprintf(stdout, "dispatched %d shard(s), %d restart(s): run %s: %d cells in %s\n",
		*shards, restarts, run.Manifest.ID, run.Manifest.Cells, *out)
	if *archive != "" {
		store, err := corpus.Open(*archive)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		a, err := store.Import(run, corpus.BuildRevision())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if a.Added {
			fmt.Fprintf(stdout, "archived run %s as generation %s into %s\n", a.Run.Manifest.ID, a.Run.Gen, *archive)
		} else {
			fmt.Fprintf(stdout, "already archived: %s is bit-identical to generation %s (%s)\n", a.Run.Manifest.ID, a.Run.Gen, *archive)
		}
	}
	return 0
}

// sweepArgs reconstructs the sweep flags a shard subprocess needs from
// the dispatcher's own raw grid flags. Passing the raw strings through
// (rather than re-rendering the parsed grid) guarantees the child
// parses the exact configuration — and therefore derives the same
// content-addressed run ID — the dispatcher validated.
func sweepArgs(gf gridFlags, workers int) []string {
	args := []string{
		"-algos", gf.algos,
		"-models", gf.models,
		"-sizes", gf.sizes,
		"-densities", gf.densities,
		"-failures", gf.failures,
		"-k", strconv.Itoa(gf.sampleK),
		"-reps", strconv.Itoa(gf.reps),
		"-seed", strconv.FormatUint(gf.seed, 10),
		"-workers", strconv.Itoa(workers),
		"-q",
	}
	if gf.trees != "" {
		args = append(args, "-trees", gf.trees)
	}
	if gf.memslots != "" {
		args = append(args, "-memslots", gf.memslots)
	}
	if gf.walkprobs != "" {
		args = append(args, "-walkprob", gf.walkprobs)
	}
	return args
}
