// Command bench is the repo's benchmark: five named workloads, every
// end-to-end metric by name with its unit, the correctness checks, a
// separate traced pass for per-layer numbers, and a comparator that can
// gate. README.md has the tables; BENCHMARK.json at the repo root is the
// machine-readable declaration.
//
//	go run -C bench . [-workload name|all] [-seed N] [-seconds S] [-trace 0|1] [-quick] [-runs N] [-out file]
//	go run -C bench . compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// gomaxprocs is pinned: par.For's width changes allocation counts, and
// the sandbox the numbers are compared on has 2 cores.
const gomaxprocs = 2

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	runs     int
	out      string
}

// workload is one named input set. run does set-up, the timed region and
// the correctness checks, and fills res with the metric set of cfg.trace.
type workload struct {
	name string
	why  string
	run  func(cfg config, res *result) error
}

var workloads = []workload{
	{"gossip_exact", "exact all-to-all gossiping (Figure-1 regime): the n^2-bit tracker, Sync.Step and the core machines dominate; graph build is a small share", gossipExact.run},
	{"broadcast_large", "single-rumor and sampled cells at n=65536 (the FHP-comparison regime): graph generation dominates, phone/msg/core do little", broadcastLarge.run},
	{"density_models", "the density axis over er/regular/powerlaw/complete at n=2048: the other generators and sparse-to-complete dialing", densityModels.run},
	{"corpus_serve", "closed loop of 2 HTTP clients over corpusd with Archive+Prune beside the reads: corpus and corpusd only, no simulator", runCorpusServe},
	{"transports", "the same machine sets over Sync, Async and loopback-TCP gossipd: the Machine seam used goroutine-per-node and over sockets", runTransports},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "all", "workload name, or all (each in its own child process)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed region")
	fs.IntVar(&trace, "trace", 0, "1 = traced pass, prints the per-layer metrics; 0 = end-to-end metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "sizes / 8 and one pass (a smoke test, not a measurement)")
	fs.IntVar(&cfg.runs, "runs", 1, "with -workload all: untraced runs per workload, on seeds seed, seed+1, ...")
	fs.StringVar(&cfg.out, "out", "", "write the result file here (environment + every run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 || cfg.runs < 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	cfg.trace = trace == 1

	file := resultFile{Env: environment(cfg.seed, stderr)}
	var err error
	if cfg.workload == "all" {
		file.Runs, err = runAll(cfg, stdout, stderr)
	} else {
		var res *result
		if res, err = runOne(cfg, stdout); err == nil {
			file.Runs = []*result{res}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.out != "" {
		file.Env.Calibration = calibrate()
		if err := writeResultFile(cfg.out, file); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	for _, r := range file.Runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runOne runs one workload in this process and prints its metrics, the
// last line being the contract's JSON object.
func runOne(cfg config, stdout io.Writer) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(gomaxprocs)
	res := newResult(cfg)
	if err := w.run(cfg, res); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if res.Attempted == 0 {
		res.problem("no operation was attempted")
	}
	printResult(stdout, res)
	return res, nil
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", res.Workload, res.Seed, res.Trace)
	for _, d := range res.decls() {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s", d.name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " (median of %d, q1 %.6g, q3 %.6g)", m.N, m.Q1, m.Q3)
		}
		fmt.Fprintln(w)
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.6g (%d of %d)\n", "failed_ratio", ratio, res.Failed, res.Attempted)
	if res.ResultHash != "" {
		fmt.Fprintf(w, "  %-32s %s\n", "result_hash", res.ResultHash)
	}
	if len(res.LayerShare) > 0 {
		layers := make([]string, 0, len(res.LayerShare))
		for l := range res.LayerShare {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return res.LayerShare[layers[i]] > res.LayerShare[layers[j]] })
		fmt.Fprintf(w, "  layer self time, share of traced wall:")
		for _, l := range layers {
			fmt.Fprintf(w, " %s %.3f", l, res.LayerShare[l])
		}
		fmt.Fprintln(w)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  NOTE: %s\n", n)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]map[string]any{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", b)
}

// runAll runs every workload, untraced (cfg.runs times, on consecutive
// seeds) then traced (once), each run in its own child process so that
// heap and GC state are per run.
func runAll(cfg config, stdout, stderr io.Writer) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir(), "all-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var runs []*result
	for _, w := range workloads {
		for i := 0; i <= cfg.runs; i++ {
			seed, trace := cfg.seed+uint64(i), "0"
			if i == cfg.runs {
				seed, trace = cfg.seed, "1"
			}
			out := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, i))
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-out", out}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			runErr := cmd.Run() // a failed check exits 1 and still leaves its result
			child, err := readResultFile(out)
			if err != nil {
				return nil, fmt.Errorf("%s: no result (%v): %w", w.name, runErr, err)
			}
			runs = append(runs, child.Runs...)
		}
	}
	return runs, nil
}

// benchDir is the harness's own directory: the driver runs it from the
// repo root, `go run -C bench .` from inside.
func benchDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "bench"
	}
	return "."
}

// outDir is where traces and scratch stores go (git-ignored).
func outDir() string {
	dir := filepath.Join(benchDir(), "out")
	os.MkdirAll(dir, 0o755)
	return dir
}
