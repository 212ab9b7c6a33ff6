package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gossip/internal/corpus"
	"gossip/internal/dispatch"
	"gossip/internal/runner"
)

// newTestFlagSet declares the shared grid flags on a fresh FlagSet.
func newTestFlagSet(gf *gridFlags) *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	registerGridFlags(fs, gf)
	return fs
}

// The dispatcher re-execs its own binary for each shard; under `go
// test` that binary is the test binary, so TestMain diverts re-execed
// children straight into main() — the real gossipsim entry point with
// the real subcommand dispatch.
const reexecEnv = "GOSSIPSIM_TEST_REEXEC"

func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dispatchGridArgs is the flag form of dispatchTestGrid — the grid
// every dispatch CLI test sweeps.
var dispatchGridArgs = []string{
	"-algos", "pushpull,sampled", "-models", "er",
	"-sizes", "64,128", "-densities", "1,2", "-reps", "2", "-seed", "51",
}

func dispatchTestGrid(t *testing.T) runner.Grid {
	t.Helper()
	grid, err := parseGrid(flags("pushpull,sampled", "er", "64,128", "1,2", "0", 2, 51))
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// singleProcessCells runs the grid uninterrupted in-process and returns
// its cells.jsonl bytes — the byte-identity oracle for every dispatch.
func singleProcessCells(t *testing.T, grid runner.Grid) []byte {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ref")
	if _, _, err := corpus.ExecuteRun(dir, grid, 3, false, nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDispatchMainEndToEnd: the full CLI path — `gossipsim dispatch
// -shards 3` re-execing real `gossipsim sweep` shard subprocesses —
// produces a merged run byte-identical to a single-process sweep, and
// archives it into a corpus with -archive.
func TestDispatchMainEndToEnd(t *testing.T) {
	t.Setenv(reexecEnv, "1")
	root := t.TempDir()
	merged := filepath.Join(root, "merged")
	corpusDir := filepath.Join(root, "corpus")
	args := append([]string{
		"-shards", "3", "-out", merged,
		"-dir", filepath.Join(root, "scratch"),
		"-archive", corpusDir, "-interval", "50ms",
	}, dispatchGridArgs...)
	var out, errw strings.Builder
	if code := dispatchMain(args, &out, &errw); code != 0 {
		t.Fatalf("dispatch exited %d:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "dispatched 3 shard(s)") {
		t.Errorf("summary missing shard count:\n%s", out.String())
	}

	got, err := os.ReadFile(filepath.Join(merged, "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, singleProcessCells(t, dispatchTestGrid(t))) {
		t.Error("dispatched cells.jsonl differs from single-process sweep")
	}

	// -archive imported the merged run under its content-addressed ID.
	if !strings.Contains(out.String(), "archived run") {
		t.Errorf("archive not reported:\n%s", out.String())
	}
	id := corpus.GridID(dispatchTestGrid(t))
	corpusStore, err := corpus.Open(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := corpusStore.Resolve(id)
	if err != nil {
		t.Fatalf("archived run not in corpus: %v", err)
	}
	if done, err := stored.Complete(); err != nil || !done {
		t.Errorf("archived run incomplete: done=%v err=%v", done, err)
	}

	// The merged run passes the zero-tolerance regression gate against a
	// single-process replay — the CI gate's exact verdict.
	refDir := filepath.Join(root, "gate-ref")
	if _, _, err := corpus.ExecuteRun(refDir, dispatchTestGrid(t), 2, false, nil); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := compareMain([]string{refDir, merged}, &out, &errw); code != 0 {
		t.Fatalf("compare(ref, dispatched) exited %d:\n%s", code, out.String())
	}
}

// TestDispatchKilledShardRetriedByteIdentical is the tentpole's
// acceptance test: one shard subprocess is SIGKILLed mid-flight on its
// first attempt, the dispatcher restarts it with -resume, and the
// merged run is still byte-identical to the uninterrupted
// single-process sweep.
func TestDispatchKilledShardRetriedByteIdentical(t *testing.T) {
	t.Setenv(reexecEnv, "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	grid := dispatchTestGrid(t)
	root := t.TempDir()
	var gf gridFlags
	fs := newTestFlagSet(&gf)
	if err := fs.Parse(dispatchGridArgs); err != nil {
		t.Fatal(err)
	}
	cfg := dispatch.Config{
		Grid:       grid,
		Shards:     3,
		Retries:    2,
		ScratchDir: filepath.Join(root, "scratch"),
		Out:        filepath.Join(root, "merged"),
		Command:    append([]string{exe, "sweep"}, sweepArgs(gf, 2)...),
		Interval:   20 * time.Millisecond,
		RetryDelay: 10 * time.Millisecond,
		OnShardStart: func(shard, attempt, pid int) {
			// Murder shard 1's first attempt the instant it launches —
			// deterministically mid-flight, whatever it managed to write.
			if shard == 1 && attempt == 0 {
				if p, err := os.FindProcess(pid); err == nil {
					p.Kill()
				}
			}
		},
	}
	run, statuses, err := dispatch.Run(cfg)
	if err != nil {
		t.Fatalf("dispatch with killed shard: %v", err)
	}
	if statuses[1].Restarts < 1 {
		t.Errorf("killed shard restarted %d times, want >= 1", statuses[1].Restarts)
	}
	for _, st := range statuses {
		if st.State != dispatch.StateDone {
			t.Errorf("shard %d ended %s, want done", st.Shard, st.State)
		}
	}
	got, err := os.ReadFile(filepath.Join(cfg.Out, "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, singleProcessCells(t, grid)) {
		t.Error("killed-and-retried dispatch differs from single-process sweep")
	}
	if run.Manifest.ID != corpus.GridID(grid) {
		t.Errorf("merged run ID %s, want %s", run.Manifest.ID, corpus.GridID(grid))
	}
}

// TestDispatchRetryExhaustionReporting: shards whose sweep command is
// invalid fail every attempt; the dispatch surfaces the attempt count
// and the shard's stderr tail (here the sweep's own usage error).
func TestDispatchRetryExhaustionReporting(t *testing.T) {
	t.Setenv(reexecEnv, "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := dispatch.Config{
		Grid:       dispatchTestGrid(t),
		Shards:     2,
		Retries:    1,
		ScratchDir: filepath.Join(root, "scratch"),
		Out:        filepath.Join(root, "merged"),
		// A sweep that dies at flag parsing: the algo does not exist.
		Command:    []string{exe, "sweep", "-algos", "no-such-algo", "-q"},
		Interval:   20 * time.Millisecond,
		RetryDelay: 10 * time.Millisecond,
	}
	_, statuses, err := dispatch.Run(cfg)
	if err == nil {
		t.Fatal("dispatch of unrunnable shards succeeded")
	}
	if !strings.Contains(err.Error(), "failed after 2 attempt(s)") {
		t.Errorf("error missing attempt count: %v", err)
	}
	if !strings.Contains(err.Error(), "no-such-algo") {
		t.Errorf("error missing the shard's stderr tail: %v", err)
	}
	failed := false
	for _, st := range statuses {
		failed = failed || st.State == dispatch.StateFailed
	}
	if !failed {
		t.Error("no shard status reports failure")
	}
}

// TestDispatchMainUsage: missing -shards or -out is a usage error
// (exit 2) before any process launches.
func TestDispatchMainUsage(t *testing.T) {
	var out, errw strings.Builder
	if code := dispatchMain([]string{"-out", "x"}, &out, &errw); code != 2 {
		t.Errorf("missing -shards exited %d, want 2", code)
	}
	if code := dispatchMain([]string{"-shards", "3"}, &out, &errw); code != 2 {
		t.Errorf("missing -out exited %d, want 2", code)
	}
	if code := dispatchMain([]string{"-shards", "2", "-out", "x", "-algos", "nope"}, &out, &errw); code != 2 {
		t.Errorf("bad grid exited %d, want 2", code)
	}
}

// TestSweepArgsRoundTrip: the re-serialized shard flags parse back to
// the exact configuration (same content-addressed run ID) the
// dispatcher validated, knob axes included.
func TestSweepArgsRoundTrip(t *testing.T) {
	gf := flags("memory,fast", "er", "256,512", "0.5,2", "0,1%", 4, 9)
	gf.trees = "1,3"
	gf.memslots = "2,4"
	gf.walkprobs = "0.1"
	gf.sampleK = 32
	grid, err := parseGrid(gf)
	if err != nil {
		t.Fatal(err)
	}
	args := sweepArgs(gf, 2)
	var back gridFlags
	fs := newTestFlagSet(&back)
	workers := fs.Int("workers", 0, "")
	quiet := fs.Bool("q", false, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	reparsed, err := parseGrid(back)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.GridID(reparsed) != corpus.GridID(grid) {
		t.Errorf("re-serialized grid maps to run %s, dispatcher grid to %s",
			corpus.GridID(reparsed), corpus.GridID(grid))
	}
	if *workers != 2 || !*quiet {
		t.Errorf("workers/quiet flags lost: workers=%d q=%v", *workers, *quiet)
	}
}
