package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"gossip/internal/corpus"
)

// trendMain runs `gossipsim trend`: the corpus-lifecycle view of one
// configuration family — each metric's mean across every stored
// generation of a run ID (metric vs revision), as a table with
// per-generation provenance and deltas plus one ASCII plot per metric.
//
//	gossipsim trend -dir corpus ca637cb1349e19b4
//	gossipsim trend -dir corpus -algo pushpull -density 2 ca637cb1349e19b4
//	gossipsim trend -dir corpus -json ca637cb1349e19b4   # the GET /trend bytes
func trendMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gossipsim trend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "corpus", "corpus directory")
	algo := fs.String("algo", "", "restrict to cells with this algorithm")
	model := fs.String("model", "", "restrict to cells with this graph model")
	n := fs.Int("n", 0, "restrict to cells with this graph size")
	density := fs.Float64("density", 0, "restrict to cells with this density factor")
	jsonOut := fs.Bool("json", false, "emit the trend as JSON — the same bytes corpusd's GET /trend/{id} answers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: gossipsim trend -dir corpus [-algo a] [-model m] [-n n] [-density d] <run-id>")
		return 2
	}
	store, err := corpus.Open(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	gens, damaged, err := store.Generations(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, d := range damaged {
		fmt.Fprintf(stderr, "skipping unreadable generation %s: %v\n", d.Dir, d.Err)
	}
	if len(gens) == 0 {
		fmt.Fprintf(stderr, "gossipsim trend: run %s has no readable generations in %s\n", fs.Arg(0), *dir)
		return 1
	}
	tr, err := corpus.TrendOf(gens, corpus.Filter{Algo: *algo, Model: *model, N: *n, Density: *density})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *jsonOut {
		if err := corpus.WriteJSON(stdout, tr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	tr.Render(stdout)
	return 0
}

// pruneMain runs `gossipsim prune`: generational GC for a corpus.
// Generations beyond -keep (newest first) or older than -age are
// removed; the newest readable generation of every run always
// survives. -damaged also clears unreadable runs/generations and
// stranded staging directories; -dry-run plans without deleting.
//
//	gossipsim prune -dir corpus -keep 5 -dry-run
//	gossipsim prune -dir corpus -age 720h -damaged
func pruneMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gossipsim prune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "corpus", "corpus directory")
	keep := fs.Int("keep", 0, "keep only the newest N generations of each run")
	age := fs.Duration("age", 0, "remove generations older than this (e.g. 720h)")
	damaged := fs.Bool("damaged", false, "also remove unreadable runs/generations and stranded temp directories")
	dryRun := fs.Bool("dry-run", false, "report what would be removed without deleting anything")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: gossipsim prune -dir corpus [-keep n] [-age d] [-damaged] [-dry-run]")
		return 2
	}
	if *keep <= 0 && *age <= 0 && !*damaged {
		fmt.Fprintln(stderr, "gossipsim prune: nothing to prune by — pass -keep, -age and/or -damaged")
		return 2
	}
	store, err := corpus.Open(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	plan, err := store.Prune(corpus.PruneOptions{
		Keep:    *keep,
		MaxAge:  *age,
		Now:     time.Now(), //gossiplint:allow detlint prune ages against operator wall time, not simulation state
		Damaged: *damaged,
		DryRun:  *dryRun,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	verb := "removed"
	if *dryRun {
		verb = "would remove"
	}
	for _, v := range plan.Victims {
		fmt.Fprintf(stdout, "%s %s: %s\n", verb, v.Dir, v.Reason)
	}
	if *dryRun {
		fmt.Fprintf(stdout, "dry-run: would remove %d generation(s), keep %d — nothing removed\n", len(plan.Victims), plan.Kept)
	} else {
		fmt.Fprintf(stdout, "pruned %d generation(s), kept %d\n", len(plan.Victims), plan.Kept)
	}
	return 0
}
