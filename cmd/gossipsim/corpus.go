package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"gossip/internal/corpus"
)

// archiveMain runs `gossipsim archive`: it lists a corpus's stored runs
// (optionally filtered by grid coordinates) and imports run directories
// into it as new generations of their content-addressed run IDs.
//
//	gossipsim archive -dir corpus                  # list stored runs
//	gossipsim archive -dir corpus -add run1 -add run2
//	gossipsim archive -dir corpus -add run -rev abc123
//	gossipsim archive -dir corpus -algo sampled -n 1048576
//	gossipsim archive -dir corpus -json            # the GET /runs bytes
func archiveMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gossipsim archive", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var adds stringList
	dir := fs.String("dir", "corpus", "corpus directory (created if missing)")
	fs.Var(&adds, "add", "import this run directory into the corpus (repeatable)")
	rev := fs.String("rev", "", "code revision to stamp on imported generations (default: the run's recorded revision, or this binary's)")
	algo := fs.String("algo", "", "list only runs containing this algorithm")
	model := fs.String("model", "", "list only runs containing this graph model")
	n := fs.Int("n", 0, "list only runs containing this graph size")
	density := fs.Float64("density", 0, "list only runs containing this density factor")
	jsonOut := fs.Bool("json", false, "emit the listing as JSON — the same bytes corpusd's GET /runs answers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "gossipsim archive: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	store, err := corpus.Open(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	decisions := stdout
	if *jsonOut {
		// JSON mode keeps stdout machine-readable: exactly one JSON
		// document, with import decisions and damage warnings on stderr.
		decisions = stderr
	}
	for _, src := range adds {
		run, err := corpus.OpenRun(src)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		effRev := *rev
		if effRev == "" && run.Manifest.Revision == "" {
			effRev = corpus.BuildRevision()
		}
		a, err := store.Import(run, effRev)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		// The append-or-dedupe decision is never silent: both the
		// stored generation's provenance and the incoming run's are
		// reported either way.
		switch {
		case a.Added && a.Prev != nil:
			fmt.Fprintf(decisions, "imported %s as %s (%s); previous generation %s (%s)\n",
				src, a.Run.Label(), provenance(a.Run.Manifest), a.Prev.Gen, provenance(a.Prev.Manifest))
		case a.Added:
			fmt.Fprintf(decisions, "imported %s as %s (%s); first generation\n",
				src, a.Run.Label(), provenance(a.Run.Manifest))
		default:
			fmt.Fprintf(decisions, "deduped %s: bit-identical to %s (%s); incoming (%s) not stored\n",
				src, a.Run.Label(), provenance(a.Run.Manifest), provenance(a.Incoming))
		}
	}

	// One store scan serves the listing in either form: Summaries
	// yields the filtered latest generations (completeness from the
	// cheap line count) and the damaged entries together.
	sums, damaged, err := store.Summaries(corpus.Filter{Algo: *algo, Model: *model, N: *n, Density: *density})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *jsonOut {
		// The full-scan listing in the corpus's shared JSON shape —
		// byte-identical to the index-backed GET /runs for the same
		// filter (the equivalence the index tests pin).
		for _, d := range damaged {
			fmt.Fprintf(stderr, "skipping unreadable entry %s: %v\n", d.Dir, d.Err)
		}
		if err := corpus.WriteJSON(stdout, sums); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	if len(sums) == 0 && len(damaged) == 0 {
		fmt.Fprintf(stdout, "corpus %s: no matching runs\n", *dir)
		return 0
	}
	fmt.Fprintf(stdout, "corpus %s: %d run(s)\n", *dir, len(sums))
	for _, r := range sums {
		state := "complete"
		if !r.Complete {
			state = fmt.Sprintf("%d/%d cells", r.CellsDone, r.Cells)
		}
		fmt.Fprintf(stdout, "  %s  %-14s gens=%-3d seed=%-6d algos=%s models=%s sizes=%v densities=%v reps=%d\n",
			r.ID, state, r.Generations, r.Seed, strings.Join(r.Algos, ","), strings.Join(r.Models, ","), r.Sizes, r.Densities, r.Reps)
	}
	// Damaged entries are listed, not fatal: one torn run must not hide
	// the rest of the corpus (prune -damaged removes them).
	for _, d := range damaged {
		fmt.Fprintf(stdout, "  %s  UNREADABLE: %v\n", d.Dir, d.Err)
	}
	return 0
}

// provenance renders a manifest's generation provenance for decisions
// and listings.
func provenance(m corpus.Manifest) string {
	rev := m.Revision
	if rev == "" {
		rev = "unversioned"
	}
	created := m.CreatedAt
	if created == "" {
		created = "unknown time"
	}
	return fmt.Sprintf("rev %s, created %s", rev, created)
}

// compareMain runs `gossipsim compare`: it joins two runs on their
// grid coordinates, diffs every metric under a tolerance profile (or a
// uniform abs/rel pair), renders the regression verdict table, and
// exits 1 when the candidate regressed — the CI gate.
//
// The runs come either from explicit run directories, or — with -dir —
// from a corpus by "id[@gen]" selector, where a single bare ID means
// "latest generation against the previous one":
//
//	gossipsim compare baseline-run/ candidate-run/
//	gossipsim compare -profile ci ref/ cand/
//	gossipsim compare -profile @corpus.manifest.json:ci ref/ cand/
//	gossipsim compare -dir corpus ca637cb1349e19b4          # latest vs previous
//	gossipsim compare -dir corpus id@0 id@latest            # pinned generations
//	gossipsim compare -json -dir corpus -profile ci <id>    # the GET /compare bytes
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gossipsim compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	abs := fs.Float64("abs", 0, "absolute tolerance per metric mean")
	rel := fs.Float64("rel", 0, "relative tolerance per metric mean (|new-ref| <= abs + rel*|ref|)")
	profile := fs.String("profile", "", "per-metric tolerance profile ("+strings.Join(corpus.ProfileNames(), ", ")+", or @manifest-file[:name]); overrides -abs/-rel")
	dir := fs.String("dir", "", "resolve arguments as id[@gen] selectors in this corpus instead of run directories")
	quiet := fs.Bool("q", false, "suppress the per-metric table, print only the summary")
	jsonOut := fs.Bool("json", false, "emit the verdict and full comparison as JSON — the same bytes corpusd's GET /compare answers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func() int {
		fmt.Fprintln(stderr, "usage: gossipsim compare [-abs x | -rel x | -profile name] <reference-run-dir> <candidate-run-dir>")
		fmt.Fprintln(stderr, "       gossipsim compare -dir corpus [-profile name] <id[@gen]> [<id[@gen]>]")
		return 2
	}
	prof := corpus.UniformProfile(corpus.Tolerance{Abs: *abs, Rel: *rel})
	if *profile != "" {
		if *abs != 0 || *rel != 0 {
			fmt.Fprintln(stderr, "gossipsim compare: -profile and -abs/-rel are mutually exclusive")
			return 2
		}
		var err error
		if prof, err = corpus.ResolveProfile(*profile); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	var ref, cand *corpus.Run
	var err error
	switch {
	case *dir != "" && (fs.NArg() == 1 || fs.NArg() == 2):
		store, oerr := corpus.Open(*dir)
		if oerr != nil {
			fmt.Fprintln(stderr, oerr)
			return 1
		}
		refSel, candSel := fs.Arg(0), fs.Arg(1)
		if fs.NArg() == 1 {
			// One selector: its generation (latest by default) against
			// the one before it — the "did my revision drift" question.
			if strings.Contains(refSel, "@") {
				fmt.Fprintln(stderr, "gossipsim compare: the one-argument form takes a bare run ID (ref is its previous generation); pin generations by passing two selectors")
				return 2
			}
			refSel, candSel = refSel+"@prev", refSel
		}
		if ref, err = store.Resolve(refSel); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if cand, err = store.Resolve(candSel); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	case *dir == "" && fs.NArg() == 2:
		if ref, err = corpus.OpenRun(fs.Arg(0)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if cand, err = corpus.OpenRun(fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	default:
		return usage()
	}

	cmp, err := corpus.CompareRunsProfile(ref, cand, prof)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *jsonOut {
		if err := corpus.WriteJSON(stdout, corpus.NewCompareResult(cmp)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		if !*quiet {
			cmp.Table().Render(stdout)
		}
		fmt.Fprintln(stdout, cmp.Summary())
	}
	if cmp.Regressed() {
		return 1
	}
	return 0
}

// reportMain runs `gossipsim report <run>`: the stored run's aggregate
// table plus ASCII plots of steps and messages/node against the run's
// moving axis (density when the run sweeps densities, size otherwise).
// With -dir the argument is an id[@gen] selector into a corpus; with
// -json the run is emitted whole (label, manifest, records) in the
// shape corpusd's GET /runs/{sel}/report answers.
//
//	gossipsim report run/
//	gossipsim report -dir corpus ca637cb1349e19b4@prev
//	gossipsim report -json -dir corpus ca637cb1349e19b4
func reportMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gossipsim report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "resolve the argument as an id[@gen] selector in this corpus instead of a run directory")
	jsonOut := fs.Bool("json", false, "emit the run as JSON — the same bytes corpusd's GET /runs/{sel}/report answers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: gossipsim report [-dir corpus] [-json] <run-dir | id[@gen]>")
		return 2
	}
	var (
		run *corpus.Run
		err error
	)
	if *dir != "" {
		store, oerr := corpus.Open(*dir)
		if oerr != nil {
			fmt.Fprintln(stderr, oerr)
			return 1
		}
		run, err = store.Resolve(fs.Arg(0))
	} else {
		run, err = corpus.OpenRun(fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *jsonOut {
		v, verr := corpus.NewReportView(run)
		if verr != nil {
			fmt.Fprintln(stderr, verr)
			return 1
		}
		if werr := corpus.WriteJSON(stdout, v); werr != nil {
			fmt.Fprintln(stderr, werr)
			return 1
		}
		return 0
	}
	if err := corpus.Report(stdout, run); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}
