// Command gossipd boots a cluster of gossip nodes over loopback TCP and
// runs one of the paper's protocols to completion — the networked
// counterpart of gossipsim's simulated runs:
//
//	gossipd serve -n 16 -payload "release v1.2 is out"
//	gossipd elect -n 16
//
// serve runs a push–pull broadcast of a real payload from node 0; elect
// runs the Algorithm 3 leader election until every node knows the winner.
// Each node is an independent step loop behind its own TCP listener; a
// static peer table wires the cluster. The command exits 0 iff the
// protocol completed (rumor everywhere, or a unique universally-known
// leader).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gossip/internal/gossipd"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	if len(argv) < 1 {
		return usage()
	}
	switch argv[0] {
	case "serve":
		return runServe(argv[1:])
	case "elect":
		return runElect(argv[1:])
	default:
		return usage()
	}
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: gossipd serve|elect [flags]")
	fmt.Fprintln(os.Stderr, "run 'gossipd serve -h' or 'gossipd elect -h' for flags")
	return 2
}

func runServe(argv []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	n := fs.Int("n", 16, "number of nodes")
	payload := fs.String("payload", "", "rumor payload (default a greeting)")
	seed := fs.Uint64("seed", 1, "peer-choice seed")
	maxSteps := fs.Int("max-steps", 0, "per-node local step cap (0 = auto)")
	delay := fs.Duration("delay", 0, "pause between a node's steps (0 = 200µs)")
	timeout := fs.Duration("timeout", 30*time.Second, "abort guard")
	verbose := fs.Bool("v", false, "print per-node informed times")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "gossipd serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	rep, err := gossipd.Serve(gossipd.Config{
		N:         *n,
		Payload:   []byte(*payload),
		Seed:      *seed,
		MaxSteps:  *maxSteps,
		StepDelay: *delay,
		Timeout:   *timeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gossipd:", err)
		return 1
	}
	fmt.Println(rep.Summary())
	if *verbose {
		for v, at := range rep.InformedAt {
			fmt.Printf("  node %3d: informed at local step %d (%d steps run)\n",
				v, at, rep.LocalSteps[v])
		}
	}
	if !rep.Completed {
		return 1
	}
	return 0
}

func runElect(argv []string) int {
	fs := flag.NewFlagSet("elect", flag.ContinueOnError)
	n := fs.Int("n", 16, "number of nodes")
	seed := fs.Uint64("seed", 1, "candidate-coin and peer-choice seed")
	maxSteps := fs.Int("max-steps", 0, "per-node local step cap (0 = schedule + slack)")
	delay := fs.Duration("delay", 0, "pause between a node's steps (0 = 200µs)")
	timeout := fs.Duration("timeout", 30*time.Second, "abort guard")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "gossipd elect: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	rep, err := gossipd.ServeElection(gossipd.ElectionConfig{
		N:         *n,
		Seed:      *seed,
		MaxSteps:  *maxSteps,
		StepDelay: *delay,
		Timeout:   *timeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gossipd:", err)
		return 1
	}
	fmt.Println(rep.Summary())
	if !rep.Completed || !rep.Unique {
		return 1
	}
	return 0
}
