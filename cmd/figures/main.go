// Command figures regenerates the tables and figures of the paper's
// evaluation section (plus the internal/exp ablations) as aligned text
// tables, ASCII plots and optional CSV files.
//
// Examples:
//
//	figures                       # every experiment at the default scale
//	figures -exp figure1          # one experiment
//	figures -quick                # bench-sized grids (seconds, not minutes)
//	figures -exp figure2 -sizes 200000 -reps 5
//	figures -csv out/             # also write out/<id>.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gossip"
)

func main() {
	var (
		expID    = flag.String("exp", "all", "experiment id or 'all' ("+strings.Join(gossip.ExperimentIDs(), ", ")+")")
		seed     = flag.Uint64("seed", 1, "master seed")
		reps     = flag.Int("reps", 0, "repetitions per point (0 = experiment default)")
		quick    = flag.Bool("quick", false, "reduced grids (smoke-test scale)")
		sizes    = flag.String("sizes", "", "comma-separated graph sizes (override)")
		failures = flag.String("failures", "", "comma-separated failure counts (figures 2/3/5)")
		csvDir   = flag.String("csv", "", "also write <dir>/<id>.csv")
		workers  = flag.Int("workers", 0, "grid-cell worker pool (0 = GOMAXPROCS; output is identical for any value)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "figures: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	cfg, err := buildConfig(*seed, *reps, *quick, *workers, *sizes, *failures)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ids := gossip.ExperimentIDs()
	if *expID != "all" {
		ids = []string{*expID}
	}
	for _, id := range ids {
		rep, err := gossip.Experiment(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		rep.Render(os.Stdout)
		if *csvDir != "" {
			if err := rep.WriteCSV(*csvDir); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s/%s.csv\n\n", *csvDir, id)
		}
	}
}

// buildConfig assembles the experiment configuration from the flag values.
func buildConfig(seed uint64, reps int, quick bool, workers int, sizes, failures string) (gossip.ExperimentConfig, error) {
	ns, err := parseInts(sizes)
	if err != nil {
		return gossip.ExperimentConfig{}, err
	}
	fs, err := parseInts(failures)
	if err != nil {
		return gossip.ExperimentConfig{}, err
	}
	// The sweep path's bounds (runner.Grid.Validate). A failure count is
	// not held to < n here: the robustness figures skip the counts
	// inadmissible for a size, and one list serves several sizes.
	for _, n := range ns {
		if n < 2 {
			return gossip.ExperimentConfig{}, fmt.Errorf("-sizes: graph size %d out of range (need >= 2)", n)
		}
	}
	for _, f := range fs {
		if f < 0 {
			return gossip.ExperimentConfig{}, fmt.Errorf("-failures: failure count %d out of range (need >= 0)", f)
		}
	}
	return gossip.ExperimentConfig{
		Seed:     seed,
		Reps:     reps,
		Quick:    quick,
		Workers:  workers,
		Sizes:    ns,
		Failures: fs,
	}, nil
}

// parseInts parses a comma-separated integer list ("" is nil).
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
