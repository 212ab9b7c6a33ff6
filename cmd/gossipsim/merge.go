package main

import (
	"flag"
	"fmt"
	"io"

	"gossip/internal/corpus"
)

// mergeMain runs `gossipsim merge`: it interleaves completed shard runs
// of one sweep (produced by `gossipsim sweep -shard s/m -out dir`) back
// into a single full run, byte-identical to what one uninterrupted
// process would have written.
//
//	gossipsim merge -out merged shard-0 shard-1 shard-2
//
// Every shard must record the same configuration (content-addressed
// grid ID) and be complete, and together the shards must cover the
// grid's cells exactly once; overlaps, gaps, mismatched configurations
// and torn shard tails are all rejected — a merge never produces a
// silently short run.
func mergeMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gossipsim merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "directory to write the merged full run to (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: gossipsim merge -out <merged-run-dir> <shard-run-dir>...")
		return 2
	}
	runs := make([]*corpus.Run, 0, fs.NArg())
	for _, dir := range fs.Args() {
		r, err := corpus.OpenRun(dir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		runs = append(runs, r)
	}
	merged, err := corpus.MergeRuns(*out, runs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "merged %d shard(s) into run %s: %d cells in %s\n",
		len(runs), merged.Manifest.ID, merged.Manifest.Cells, *out)
	return 0
}
