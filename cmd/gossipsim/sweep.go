package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gossip/internal/corpus"
	"gossip/internal/runner"
)

// gridFlags holds the raw flag values a sweep grid is parsed from.
type gridFlags struct {
	algos, models, sizes, densities, failures string
	trees, memslots, walkprobs                string
	sampleK, reps                             int
	seed                                      uint64
}

// sweepMain runs `gossipsim sweep`: it declares a scenario grid from the
// flags, executes it on the runner engine — checkpointing to a run
// directory when -out is set, resuming a killed run's completed prefix
// with -resume — prints the aggregate table, and optionally streams
// per-cell JSON lines (as each cell completes, in cell order) and CSV.
func sweepMain(args []string) {
	fs := flag.NewFlagSet("gossipsim sweep", flag.ContinueOnError)
	var gf gridFlags
	fs.StringVar(&gf.algos, "algos", "pushpull", "comma-separated algorithms ("+strings.Join(runner.Algos(), ", ")+")")
	fs.StringVar(&gf.models, "models", "er", "comma-separated graph models ("+strings.Join(runner.Models(), ", ")+")")
	fs.StringVar(&gf.sizes, "sizes", "1024", "graph sizes: comma-separated values and lo..hi doubling ranges (e.g. 1024..65536)")
	fs.StringVar(&gf.densities, "densities", "1", "comma-separated density factors scaling the log²n operating point")
	fs.StringVar(&gf.failures, "failures", "0", "comma-separated failure counts, absolute or % of n (e.g. 0,1%,5%); algorithms without a crash model (all but memory) run once at 0")
	fs.StringVar(&gf.trees, "trees", "", "comma-separated gather-tree counts for the memory model (empty = schedule default)")
	fs.StringVar(&gf.memslots, "memslots", "", "comma-separated per-node link memory capacities for the memory model (empty = the paper's 4)")
	fs.StringVar(&gf.walkprobs, "walkprob", "", "comma-separated walk start probabilities for fast-gossip (empty = the schedule's 1/log n)")
	fs.IntVar(&gf.sampleK, "k", 0, "tracked messages for the sampled estimator (0 = 64); Θ(n·k) memory reaches n = 10⁶ where exact tracking walls")
	fs.IntVar(&gf.reps, "reps", 3, "independent repetitions per cell")
	fs.Uint64Var(&gf.seed, "seed", 1, "master seed (per-cell seeds derive from it and the cell index)")
	var (
		workers = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS; results are identical for any value)")
		jsonOut = fs.String("json", "", "stream one JSON line per cell to this file (- for stdout), written as cells complete")
		csvDir  = fs.String("csv", "", "also write <dir>/sweep.csv")
		out     = fs.String("out", "", "checkpoint the sweep to this run directory (manifest.json + cells.jsonl)")
		resume  = fs.Bool("resume", false, "with -out: resume a killed run, skipping its completed cells")
		quiet   = fs.Bool("q", false, "suppress the table (useful with -json -)")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "gossipsim sweep: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}

	grid, err := parseGrid(gf)
	if err == nil && *resume && *out == "" {
		err = errors.New("gossipsim sweep: -resume requires -out")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	records, err := runSweep(grid, *workers, *jsonOut, *out, *resume)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	title := fmt.Sprintf("sweep: %d cells × %d reps, seed %d", len(records), gf.reps, gf.seed)
	table := runner.RecordTable(title, records)
	if !*quiet {
		table.Render(os.Stdout)
	}
	if *csvDir != "" {
		if err := table.WriteCSV(*csvDir, "sweep"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s/sweep.csv\n", *csvDir)
	}
}

// runSweep executes the grid, checkpointed to the run directory out when
// it is set (resuming its completed prefix with resume), and returns the
// records. Each cell goes to the JSON stream at path ("-" for stdout, ""
// for none) in cell order as it completes, a resumed run's loaded prefix
// first, so long sweeps are observable line by line. Write, flush and
// close errors of the stream surface once, through openJSONSink's close
// function.
func runSweep(grid runner.Grid, workers int, path, out string, resume bool) ([]runner.CellRecord, error) {
	sink, closeSink, err := openJSONSink(path)
	if err != nil {
		return nil, err
	}
	var records []runner.CellRecord
	if out != "" {
		run, recs, err := corpus.ExecuteRun(out, grid, workers, resume, sink)
		if err != nil {
			return nil, errors.Join(err, closeSink())
		}
		records = recs
		fmt.Fprintf(os.Stderr, "run %s: %d cells in %s\n", run.Manifest.ID, len(recs), out)
	} else {
		r := &runner.Runner{Workers: workers}
		if sink != nil {
			r.OnCell = runner.NewOrderedCells(0, func(rec runner.CellRecord) error {
				sink(rec)
				return nil
			}).Add
		}
		for _, res := range r.RunGrid(grid) {
			records = append(records, res.Record())
		}
	}
	return records, closeSink()
}

// createSink creates the -json file. It is a variable so a test can make
// the file's Close fail.
var createSink = func(path string) (io.WriteCloser, error) { return os.Create(path) }

// openJSONSink returns a per-record JSONL emitter for path ("" = none,
// "-" = stdout) and a close function reporting any write error — a
// failed flush-on-close included.
func openJSONSink(path string) (func(runner.CellRecord), func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	var f io.WriteCloser
	sink := io.Writer(os.Stdout)
	if path != "-" {
		var err error
		if f, err = createSink(path); err != nil {
			return nil, nil, err
		}
		sink = f
	}
	var writeErr error
	emit := func(r runner.CellRecord) {
		if writeErr == nil {
			writeErr = runner.WriteRecordJSONL(sink, []runner.CellRecord{r})
		}
	}
	finish := func() error {
		if f != nil {
			if err := f.Close(); err != nil && writeErr == nil {
				writeErr = fmt.Errorf("close %s: %w", path, err)
			}
		}
		return writeErr
	}
	return emit, finish, nil
}

// parseGrid assembles and validates a sweep grid from the flag values.
func parseGrid(gf gridFlags) (runner.Grid, error) {
	ns, err := parseSizes(gf.sizes)
	ds, dErr := parseList(gf.densities, "float", parseFloat)
	if dErr == nil && len(ds) == 0 {
		dErr = fmt.Errorf("empty float list %q", gf.densities)
	}
	fs, fErr := parseList(gf.failures, "failure count", runner.ParseFailureSpec)
	trees, tErr := parseList(gf.trees, "int", strconv.Atoi)
	memslots, mErr := parseList(gf.memslots, "int", strconv.Atoi)
	walkprobs, wErr := parseList(gf.walkprobs, "float", parseFloat)
	if err := cmp.Or(err, dErr, fErr, tErr, mErr, wErr); err != nil {
		return runner.Grid{}, err
	}
	grid := runner.Grid{
		Algos:     splitList(gf.algos),
		Models:    splitList(gf.models),
		Sizes:     ns,
		Densities: ds,
		Failures:  fs,
		Trees:     trees,
		MemSlots:  memslots,
		WalkProbs: walkprobs,
		SampleK:   gf.sampleK,
		Reps:      gf.reps,
		Seed:      gf.seed,
	}
	if err := grid.Validate(); err != nil {
		return runner.Grid{}, err
	}
	return grid, nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseSizes parses a size list: comma-separated entries that are either
// single values ("4096") or lo..hi doubling ranges ("1024..65536" →
// 1024, 2048, ..., 65536; hi is included even off the doubling lattice).
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		lo, hi, isRange := strings.Cut(part, "..")
		a, err := strconv.Atoi(lo)
		if err != nil || a <= 0 {
			return nil, fmt.Errorf("bad size %q in %q", lo, s)
		}
		if !isRange {
			out = append(out, a)
			continue
		}
		b, err := strconv.Atoi(hi)
		if err != nil || b < a {
			return nil, fmt.Errorf("bad size range %q", part)
		}
		for n := a; n < b; n *= 2 {
			out = append(out, n)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty size list %q", s)
	}
	return out, nil
}

// parseList parses a comma-separated list of what with parse; empty input
// is an empty (defaulted) axis.
func parseList[T any](s, what string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range splitList(s) {
		v, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q in %q", what, part, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
