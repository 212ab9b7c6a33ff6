package main

import (
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gossip/internal/runner"
)

// Tests that drive the real command line re-exec the test binary with
// reexecEnv set; TestMain diverts such children straight into main(),
// the real gossipsim entry point with the real subcommand switch.
const reexecEnv = "GOSSIPSIM_TEST_REEXEC"

func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gossipsimCmd returns a command running `gossipsim args...` through
// TestMain's re-exec.
func gossipsimCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), reexecEnv+"=1")
	return cmd
}

func TestBuildGraphModels(t *testing.T) {
	for _, tc := range []struct {
		model  string
		p      float64
		degree int
	}{
		{model: "er"},
		{model: "er-p", p: 0.1},
		{model: "regular", degree: 8},
		{model: "regular"}, // degree defaulted to log²n
		{model: "powerlaw"},
	} {
		g, err := buildGraph(tc.model, 256, tc.p, tc.degree, 2.5, 1)
		if err != nil {
			t.Fatalf("buildGraph(%q): %v", tc.model, err)
		}
		if g.N() != 256 {
			t.Errorf("buildGraph(%q): n = %d, want 256", tc.model, g.N())
		}
	}
}

// TestBuildGraphDefaultDegreeBelowN: at n ≤ 16 log²n/n clamps to 1, and the
// defaulted degree must be n-1, not n.
func TestBuildGraphDefaultDegreeBelowN(t *testing.T) {
	got, err := buildGraph("regular", 16, 0, 0, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := buildGraph("regular", 16, 0, 15, 2.5, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("default degree at n=16: m = %d, -degree 15 gives m = %d", got.M(), want.M())
	}
}

// TestBuildGraphRegularDegree: every node has exactly the degree asked
// for, or by default the sweep's (at n = 1200, log²n = 104.5 rounds to 105),
// bumped by one where n·degree is odd.
func TestBuildGraphRegularDegree(t *testing.T) {
	for _, tc := range []struct{ n, degree, want int }{
		{1200, 0, 105},
		{256, 8, 8},
		{255, 7, 8},
	} {
		g, err := buildGraph("regular", tc.n, 0, tc.degree, 2.5, 1)
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); int(v) < g.N(); v++ {
			if d := g.Degree(v); d != tc.want {
				t.Fatalf("n=%d -degree %d: node %d has degree %d, want %d", tc.n, tc.degree, v, d, tc.want)
			}
		}
	}
}

func TestBuildGraphErrors(t *testing.T) {
	if _, err := buildGraph("nope", 256, 0, 0, 2.5, 1); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := buildGraph("er-p", 256, 0, 0, 2.5, 1); err == nil {
		t.Error("er-p without -p accepted")
	}
	if _, err := buildGraph("er-p", 256, 1.5, 0, 2.5, 1); err == nil {
		t.Error("er-p with p > 1 accepted")
	}
	if _, err := buildGraph("er-p", 256, math.NaN(), 0, 2.5, 1); err == nil {
		t.Error("er-p with p = NaN accepted")
	}
	for _, beta := range []float64{1, 0.5, -2, math.NaN(), math.Inf(1)} {
		if _, err := buildGraph("powerlaw", 256, 0, 0, beta, 1); err == nil {
			t.Errorf("powerlaw with beta = %v accepted", beta)
		}
	}
}

func TestRunOneSmoke(t *testing.T) {
	g, err := buildGraph("er", 256, 0, 0, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for algo, want := range map[string]string{
		"pushpull":       "msgs/node",
		"fast":           "msgs/node",
		"memory":         "msgs/node",
		"memory-elect":   "election:",
		"broadcast-push": "broadcast",
	} {
		var b strings.Builder
		if err := runOne(&b, g, algo, 256, 1, 1, 0, false); err != nil {
			t.Fatalf("runOne(%q): %v", algo, err)
		}
		if !strings.Contains(b.String(), want) {
			t.Errorf("runOne(%q) output missing %q:\n%s", algo, want, b.String())
		}
	}
	var b strings.Builder
	if err := runOne(&b, g, "memory", 256, 1, 3, 10, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "robustness:") {
		t.Errorf("failure run missing robustness report:\n%s", b.String())
	}
	if err := runOne(&b, g, "nope", 256, 1, 1, 0, false); err == nil {
		t.Error("unknown algo accepted")
	}
}

// TestSingleRunRejectsOutOfRange drives the real main() (through
// TestMain's re-exec) with flag values the simulators cannot run: each is
// a usage error — exit 2, one line on stderr (plus the flag usage where
// main prints it) — never a goroutine dump.
func TestSingleRunRejectsOutOfRange(t *testing.T) {
	// usage: the value is rejected by buildGraph, whose errors main follows
	// with the flag usage.
	for _, tc := range []struct {
		usage bool
		args  []string
	}{
		{false, []string{"-algo", "memory", "-n", "64", "-failures", "64"}},
		{false, []string{"-algo", "memory", "-n", "64", "-failures", "-3"}},
		{false, []string{"-algo", "memory", "-n", "64", "-trees", "-1"}},
		{false, []string{"-algo", "memory", "-n", "0"}},
		{false, []string{"-algo", "broadcast-push", "-n", "0"}},
		{false, []string{"-n", "-5"}},
		{false, []string{"-model", "regular", "-n", "64", "-degree", "64"}},
		{true, []string{"-model", "er-p", "-n", "64", "-p", "NaN"}},
		{true, []string{"-model", "powerlaw", "-n", "64", "-beta", "1"}},
		{true, []string{"-model", "powerlaw", "-n", "64", "-beta", "NaN"}},
	} {
		args := tc.args
		cmd := gossipsimCmd(t, args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("gossipsim %v: %v, want exit 2", args, err)
		}
		msg := stderr.String()
		if !tc.usage && strings.Count(msg, "\n") != 1 {
			t.Errorf("gossipsim %v: stderr is not one line:\n%s", args, msg)
		}
		if strings.Contains(msg, "panic:") || strings.Contains(msg, "fatal error:") {
			t.Errorf("gossipsim %v crashed:\n%s", args, msg)
		}
	}
}

// TestRunOneZeroTreesIsScheduleDefault: -trees 0 means the schedule's
// tree count, as a sweep's trees axis does — not a run that builds no
// gather tree and so gathers nothing.
func TestRunOneZeroTreesIsScheduleDefault(t *testing.T) {
	g, err := buildGraph("er", 64, 0, 0, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"memory", "memory-elect"} {
		var b strings.Builder
		if err := runOne(&b, g, algo, 64, 1, 0, 0, false); err != nil {
			t.Fatalf("runOne(%q): %v", algo, err)
		}
		if !strings.Contains(b.String(), "completed=true") {
			t.Errorf("runOne(%q) with 0 trees did not complete:\n%s", algo, b.String())
		}
	}
}

// TestSweepRejectsMemSlotsAboveCapacity: a link memory capacity the
// memory model cannot hold is a usage error (exit 2) that runs nothing,
// not a panic inside the first cell.
func TestSweepRejectsMemSlotsAboveCapacity(t *testing.T) {
	args := []string{"sweep", "-algos", "memory", "-sizes", "64", "-memslots", "5", "-reps", "1"}
	cmd := gossipsimCmd(t, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("gossipsim %v: %v, want exit 2", args, err)
	}
	if stdout.Len() != 0 {
		t.Errorf("gossipsim %v ran something:\n%s", args, stdout.String())
	}
	if strings.Contains(stderr.String(), "panic:") {
		t.Errorf("gossipsim %v crashed:\n%s", args, stderr.String())
	}
}

// TestStrayOperandsAreUsageErrors: Go's flag parsing stops at the
// first operand, so a command that takes none would silently drop every
// flag after a stray one. Each such command — and the retired dispatch
// and merge subcommands and -shard flag — is a usage error (exit 2)
// that runs nothing.
func TestStrayOperandsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "64", "128"},
		{"-algo", "pushpull", "-n", "64", "extra", "-reps", "2"},
		{"sweep", "-algos", "pushpull", "-sizes", "64", "128", "-reps", "1"},
		{"sweep", "-sizes", "64", "-q", "stray"},
		{"sweep", "-shard", "0/2", "-sizes", "64"},
		{"archive", "-dir", t.TempDir(), "stray"},
		{"dispatch", "-shards", "2"},
		{"merge", "-out", "x", "a"},
	} {
		cmd := gossipsimCmd(t, args...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("gossipsim %v: %v, want exit 2", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("gossipsim %v ran something:\n%s", args, stdout.String())
		}
		if strings.Contains(stderr.String(), "panic:") {
			t.Errorf("gossipsim %v crashed:\n%s", args, stderr.String())
		}
	}
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("512,1024..8192,9000")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{512, 1024, 2048, 4096, 8192, 9000}
	if len(got) != len(want) {
		t.Fatalf("parseSizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseSizes = %v, want %v", got, want)
		}
	}
	// A range whose top is off the doubling lattice still includes it.
	got, err = parseSizes("1000..3000")
	if err != nil {
		t.Fatal(err)
	}
	if got[len(got)-1] != 3000 {
		t.Errorf("range top not included: %v", got)
	}
	for _, bad := range []string{"", "x", "0", "-4", "8..4", "1..x"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) accepted", bad)
		}
	}
}

// flags returns a baseline gridFlags that tests override per case.
func flags(algos, models, sizes, densities, failures string, reps int, seed uint64) gridFlags {
	return gridFlags{
		algos: algos, models: models, sizes: sizes,
		densities: densities, failures: failures,
		reps: reps, seed: seed,
	}
}

func TestParseGrid(t *testing.T) {
	grid, err := parseGrid(flags("memory,fast", "er,complete", "256,512", "0.5,2", "0,1%", 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	cells := grid.Scenarios()
	// memory keeps the failures axis; fast has no crash model, so its
	// failure dimension collapses to one zero-failure cell.
	if want := 2*2*2*2 + 2*2*2; len(cells) != want {
		t.Fatalf("grid expanded to %d cells, want %d", len(cells), want)
	}
	if grid.Seed != 9 || grid.Reps != 4 {
		t.Errorf("grid seed/reps wrong: %+v", grid)
	}
	for _, bad := range [][5]string{
		{"nope", "er", "256", "1", "0"},
		{"pushpull", "nope", "256", "1", "0"},
		{"pushpull", "er", "x", "1", "0"},
		{"pushpull", "er", "256", "zero", "0"},
		{"pushpull", "er", "256", "NaN", "0"},
		{"pushpull", "er", "256", "+Inf", "0"},
		{"memory", "er", "256", "1", "NaN%"},
		{"pushpull", "er", "256", "1", "many"},
	} {
		if _, err := parseGrid(flags(bad[0], bad[1], bad[2], bad[3], bad[4], 1, 1)); err == nil {
			t.Errorf("parseGrid(%v) accepted", bad)
		}
	}
}

func TestParseGridKnobAxes(t *testing.T) {
	gf := flags("memory,fast", "er", "256", "1", "0", 2, 7)
	gf.trees = "1,3"
	gf.memslots = "2,4"
	gf.walkprobs = "0.1,0.5"
	grid, err := parseGrid(gf)
	if err != nil {
		t.Fatal(err)
	}
	// memory multiplies over trees × memslots (walkprob collapses);
	// fast multiplies over walkprobs (trees/memslots collapse).
	cells := grid.Scenarios()
	if want := 2*2 + 2; len(cells) != want {
		t.Fatalf("grid expanded to %d cells, want %d", len(cells), want)
	}
	for _, bad := range []gridFlags{
		{algos: "memory", models: "er", sizes: "256", densities: "1", failures: "0", trees: "x", reps: 1, seed: 1},
		{algos: "memory", models: "er", sizes: "256", densities: "1", failures: "0", memslots: "-2", reps: 1, seed: 1},
		{algos: "memory", models: "er", sizes: "256", densities: "1", failures: "0", memslots: "5", reps: 1, seed: 1},
		{algos: "fast", models: "er", sizes: "256", densities: "1", failures: "0", walkprobs: "1.5", reps: 1, seed: 1},
		{algos: "fast", models: "er", sizes: "256", densities: "1", failures: "0", walkprobs: "NaN", reps: 1, seed: 1},
	} {
		if _, err := parseGrid(bad); err == nil {
			t.Errorf("parseGrid(%+v) accepted", bad)
		}
	}
}

func TestSweepEndToEnd(t *testing.T) {
	grid, err := parseGrid(flags("pushpull", "er", "128,256", "1", "0", 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	results := (&runner.Runner{Workers: 4}).RunGrid(grid)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	var b strings.Builder
	if err := runner.WriteJSONL(&b, results); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "\n"); n != 2 {
		t.Fatalf("JSONL lines = %d, want 2", n)
	}
	var tb strings.Builder
	runner.RecordTable("t", runner.Records(results)).Render(&tb)
	if !strings.Contains(tb.String(), "pushpull") {
		t.Errorf("sweep table missing algo:\n%s", tb.String())
	}
}

// TestRunStreamingThroughJSONSink: the -json streaming path shares
// openJSONSink's plumbing — records land in cell order and an
// unwritable path errors.
func TestRunStreamingThroughJSONSink(t *testing.T) {
	grid, err := parseGrid(flags("pushpull", "er", "64,128", "1,2", "0", 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	recs, err := runSweep(grid, 2, path, "", false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := runner.WriteRecordJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if string(b) != buf.String() {
		t.Error("streamed JSONL differs from the returned records")
	}
	if n := strings.Count(string(b), "\n"); n != len(grid.Scenarios()) {
		t.Errorf("streamed %d lines, want %d", n, len(grid.Scenarios()))
	}

	// Sink open errors surface immediately; nothing runs.
	if _, err := runSweep(grid, 2, filepath.Join(t.TempDir(), "no", "such", "dir.jsonl"), "", false); err == nil {
		t.Error("unwritable sink path accepted")
	}
}

var errClose = errors.New("injected close fault")

// failClose closes the file and then reports errClose.
type failClose struct{ io.WriteCloser }

func (f failClose) Close() error {
	if err := f.WriteCloser.Close(); err != nil {
		return err
	}
	return errClose
}

// TestJSONSinkReportsCloseError: a failed Close of the -json file is a
// failed flush to disk, so the sweep must fail with it.
func TestJSONSinkReportsCloseError(t *testing.T) {
	grid, err := parseGrid(flags("pushpull", "er", "64", "1", "0", 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	saved := createSink
	defer func() { createSink = saved }()
	createSink = func(path string) (io.WriteCloser, error) {
		f, err := saved(path)
		return failClose{f}, err
	}
	if _, err := runSweep(grid, 2, filepath.Join(t.TempDir(), "out.jsonl"), "", false); !errors.Is(err, errClose) {
		t.Errorf("runSweep with a failing Close returned %v, want the close error", err)
	}
}
