// Command gossipsim runs gossiping simulations from the random phone call
// model reproduction.
//
// Single-run mode prints one simulation's accounting:
//
//	gossipsim -algo pushpull -n 4096
//	gossipsim -algo fast -n 16384 -reps 5
//	gossipsim -algo memory -n 100000 -trees 3 -failures 5000
//	gossipsim -algo memory-elect -n 8192
//	gossipsim -algo broadcast-push -n 8192 -model regular -degree 64
//
// Sweep mode expands a declarative scenario grid (algorithm × graph model
// × density × size × failure count × algorithm knobs) and executes it on
// the parallel runner engine, with deterministic per-cell seeds, an
// aggregate table, and optional JSON-lines / CSV export:
//
//	gossipsim sweep -algos pushpull,fast -models er,regular,powerlaw \
//	    -sizes 1024..65536 -densities 0.5,1,2,4 -failures 0,1%,5% \
//	    -reps 10 -json out.jsonl
//
// Sweeps checkpoint to a run directory with -out and resume with
// -resume; the corpus subcommands store, diff and render such runs.
// The corpus is generational: archiving the same configuration again —
// typically from a newer code revision — appends a generation under
// the run's content-addressed ID instead of discarding the new
// results, and id@gen selectors, trend reports, tolerance profiles and
// prune/GC manage the history:
//
//	gossipsim sweep -sizes 1024..1048576 -algos sampled -out run/ -resume
//	gossipsim archive -dir corpus -add run/
//	gossipsim compare baseline-run/ candidate-run/     # exit 1 on regression
//	gossipsim compare -dir corpus -profile ci <id>     # latest vs previous gen
//	gossipsim trend -dir corpus <id>                   # metric vs revision
//	gossipsim prune -dir corpus -keep 5 -dry-run
//	gossipsim report run/
//
// The corpus is also a service: `gossipsim serve` indexes a store and
// answers the same questions over HTTP — run listings, manifests,
// streamed cells, trends, regression compares, Prometheus-style
// metrics, and an HTML dashboard — with JSON bytes identical to the
// CLI's -json flags:
//
//	gossipsim serve -dir corpus -addr :8477 -manifest corpus.manifest.json
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"gossip"
	"gossip/internal/runner"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sweep":
			sweepMain(os.Args[2:])
			return
		case "archive":
			os.Exit(archiveMain(os.Args[2:], os.Stdout, os.Stderr))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
		case "report":
			os.Exit(reportMain(os.Args[2:], os.Stdout, os.Stderr))
		case "trend":
			os.Exit(trendMain(os.Args[2:], os.Stdout, os.Stderr))
		case "prune":
			os.Exit(pruneMain(os.Args[2:], os.Stdout, os.Stderr))
		case "serve":
			os.Exit(serveMain(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	var (
		algo     = flag.String("algo", "pushpull", "pushpull | fast | fast-theory | memory | memory-elect | broadcast-push | broadcast-pull | broadcast-pushpull")
		n        = flag.Int("n", 4096, "number of nodes (= number of messages)")
		model    = flag.String("model", "er", "graph model: er (G(n, log²n/n)) | er-p | regular (configuration model: loops and parallel edges kept, every degree exact) | powerlaw")
		p        = flag.Float64("p", 0, "edge probability for -model er-p")
		degree   = flag.Int("degree", 0, "degree for -model regular, bumped by one when n·degree is odd (0 = the sweep's: log²n rounded, in [3, n-1])")
		beta     = flag.Float64("beta", 2.5, "power-law exponent for -model powerlaw")
		seed     = flag.Uint64("seed", 1, "master seed")
		reps     = flag.Int("reps", 1, "independent repetitions (seed+rep)")
		trees    = flag.Int("trees", 1, "memory model: independent gather trees")
		failures = flag.Int("failures", 0, "memory model: crash F random nodes before Phase II")
		verbose  = flag.Bool("v", false, "print per-phase accounting")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "gossipsim: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	// The sweep path's bounds, applied to the single-run flags: input the
	// simulators cannot run is a usage error, not a panic.
	bounds := runner.Grid{Sizes: []int{*n}, Trees: []int{*trees}, Failures: []runner.FailureSpec{{Count: *failures}}}
	if err := bounds.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *model == "regular" && *degree >= *n {
		fmt.Fprintf(os.Stderr, "gossipsim: -degree %d for -model regular (need < n=%d)\n", *degree, *n)
		os.Exit(2)
	}
	for rep := 0; rep < *reps; rep++ {
		s := *seed + uint64(rep)
		g, err := buildGraph(*model, *n, *p, *degree, *beta, s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			flag.Usage()
			os.Exit(2)
		}
		if rep == 0 {
			d := gossip.Degrees(g)
			fmt.Printf("graph: n=%d edges=%d mean-degree=%.1f connected=%v\n\n",
				g.N(), g.M(), d.Mean, gossip.IsConnected(g))
		}
		if err := runOne(os.Stdout, g, *algo, *n, s, *trees, *failures, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, err)
			flag.Usage()
			os.Exit(2)
		}
	}
}

// runOne dispatches one repetition of the single-run mode and writes its
// accounting to w.
func runOne(w io.Writer, g *gossip.Graph, algo string, n int, seed uint64, trees, failures int, verbose bool) error {
	switch algo {
	case "memory":
		params := gossip.TunedMemoryParams(n)
		if trees > 0 { // 0 keeps the schedule default, as in the sweep
			params.Trees = trees
		}
		if failures > 0 {
			res := gossip.RunMemoryRobustness(g, params, seed, failures)
			fmt.Fprintf(w, "robustness: failed=%d additional-lost=%d ratio=%.3f per-tree=%v\n",
				res.Failed, res.LostAdditional, res.Ratio, res.PerTreeLost)
			return nil
		}
		report(w, gossip.RunMemoryGossip(g, params, seed, -1), verbose)
	case "memory-elect":
		params := gossip.TunedMemoryParams(n)
		if trees > 0 { // 0 keeps the schedule default, as in the sweep
			params.Trees = trees
		}
		res, le := gossip.RunMemoryGossipWithElection(g, params, gossip.DefaultLeaderParams(n), seed)
		fmt.Fprintf(w, "election: leader=%d candidates=%d aware=%d/%d\n",
			le.Leader, le.Candidates, le.AwareCount, le.N)
		report(w, res, verbose)
	case "pushpull":
		report(w, gossip.RunPushPull(g, seed, 0), verbose)
	case "fast":
		report(w, gossip.RunFastGossip(g, gossip.TunedFastGossipParams(n), seed), verbose)
	case "fast-theory":
		report(w, gossip.RunFastGossip(g, gossip.TheoryFastGossipParams(n), seed), verbose)
	case "broadcast-push", "broadcast-pull", "broadcast-pushpull":
		mode := map[string]gossip.BroadcastMode{
			"broadcast-push":     gossip.PushOnly,
			"broadcast-pull":     gossip.PullOnly,
			"broadcast-pushpull": gossip.PushAndPull,
		}[algo]
		res := gossip.RunBroadcast(g, 0, mode, seed, 0)
		fmt.Fprintf(w, "broadcast %-9s rounds=%-3d completed=%-5v transmissions/node=%.2f\n",
			mode, res.Steps, res.Completed, res.TransmissionsPerNode())
	default:
		return fmt.Errorf("unknown -algo %q", algo)
	}
	return nil
}

// buildGraph samples the single-run-mode topology from the flag values.
func buildGraph(model string, n int, p float64, degree int, beta float64, seed uint64) (*gossip.Graph, error) {
	switch model {
	case "er":
		return gossip.NewPaperGraph(n, seed), nil
	case "er-p":
		if !(p > 0 && p <= 1) { // negated in-range test: rejects NaN too
			return nil, fmt.Errorf("-model er-p requires -p in (0, 1]")
		}
		return gossip.NewErdosRenyi(n, p, seed), nil
	case "regular":
		if degree <= 0 { // the sweep's density-1 cell, degree rule and seeding included
			return runner.BuildGraph(runner.Scenario{Model: "regular", N: n, Density: 1}, seed)
		}
		if n*degree%2 == 1 {
			degree++
		}
		return gossip.NewConfigurationModel(n, degree, seed), nil
	case "powerlaw":
		if !(beta > 1) || math.IsInf(beta, 1) {
			return nil, fmt.Errorf("-model powerlaw requires a finite -beta > 1")
		}
		return gossip.NewPowerLaw(n, beta, 8, seed), nil
	default:
		return nil, fmt.Errorf("unknown -model %q", model)
	}
}

func report(w io.Writer, res *gossip.Result, verbose bool) {
	if verbose {
		fmt.Fprintln(w, res)
		return
	}
	fmt.Fprintf(w, "%-14s steps=%-4d completed=%-5v msgs/node=%-7.2f packets/node=%-7.2f opened/node=%.2f\n",
		res.Algorithm, res.Steps, res.Completed,
		res.TransmissionsPerNode(), res.PacketsPerNode(), res.OpenedPerNode())
}
