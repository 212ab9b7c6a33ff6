package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gossip/internal/corpus"
)

// writeRun executes a tiny checkpointed sweep and returns its directory.
func writeRun(t *testing.T, seed uint64) string {
	t.Helper()
	gf := flags("pushpull,sampled", "er", "64,128", "1,2", "0", 2, seed)
	grid, err := parseGrid(gf)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if _, _, err := corpus.ExecuteRun(dir, grid, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCompareMainGate(t *testing.T) {
	a := writeRun(t, 1)
	b := writeRun(t, 1) // same configuration: bit-identical
	c := writeRun(t, 2) // different seed: drifts

	var out, errw strings.Builder
	if code := compareMain([]string{a, b}, &out, &errw); code != 0 {
		t.Fatalf("identical runs exited %d: %s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("missing PASS summary:\n%s", out.String())
	}

	out.Reset()
	if code := compareMain([]string{a, c}, &out, &errw); code != 1 {
		t.Fatalf("drifted run exited %d, want 1", code)
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("missing regression verdict:\n%s", out.String())
	}
	for _, col := range []string{"cell", "metric", "ref", "new", "delta", "verdict"} {
		if !strings.Contains(out.String(), col) {
			t.Errorf("verdict table missing column %q:\n%s", col, out.String())
		}
	}

	// Usage errors exit 2.
	if code := compareMain([]string{a}, &out, &errw); code != 2 {
		t.Errorf("one-arg compare exited %d, want 2", code)
	}
	// A missing run errors cleanly.
	if code := compareMain([]string{a, filepath.Join(t.TempDir(), "nope")}, &out, &errw); code != 1 {
		t.Errorf("missing run exited %d, want 1", code)
	}
}

func TestArchiveMainImportListFilter(t *testing.T) {
	run := writeRun(t, 3)
	corpusDir := filepath.Join(t.TempDir(), "corpus")

	var out, errw strings.Builder
	if code := archiveMain([]string{"-dir", corpusDir, "-add", run}, &out, &errw); code != 0 {
		t.Fatalf("archive import exited %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "imported") || !strings.Contains(out.String(), "complete") {
		t.Errorf("import listing wrong:\n%s", out.String())
	}

	// Re-import of bit-identical cells at the same revision dedupes —
	// and the decision reports both generations' provenance.
	out.Reset()
	if code := archiveMain([]string{"-dir", corpusDir, "-add", run}, &out, &errw); code != 0 {
		t.Fatal("re-import failed")
	}
	if !strings.Contains(out.String(), "deduped") || !strings.Contains(out.String(), "incoming (rev") {
		t.Errorf("dedupe decision not reported with both provenances:\n%s", out.String())
	}

	// Filtered listing: a matching filter shows the run, a missing one
	// does not.
	out.Reset()
	if code := archiveMain([]string{"-dir", corpusDir, "-algo", "sampled"}, &out, &errw); code != 0 {
		t.Fatal("filtered list failed")
	}
	if !strings.Contains(out.String(), "1 run(s)") {
		t.Errorf("algo filter missed the run:\n%s", out.String())
	}
	out.Reset()
	if code := archiveMain([]string{"-dir", corpusDir, "-algo", "memory"}, &out, &errw); code != 0 {
		t.Fatal("empty list failed")
	}
	if !strings.Contains(out.String(), "no matching runs") {
		t.Errorf("memory filter matched:\n%s", out.String())
	}
}

// TestGenerationWorkflowCLI drives the corpus-lifecycle loop end to
// end at the command layer: archive one configuration at two fake
// revisions, list both generations, compare latest-vs-previous (default
// and @gen-pinned), render the trend, and prune back down to one.
func TestGenerationWorkflowCLI(t *testing.T) {
	run := writeRun(t, 6)
	corpusDir := filepath.Join(t.TempDir(), "corpus")

	var out, errw strings.Builder
	code := archiveMain([]string{"-dir", corpusDir, "-add", run, "-rev", "revA"}, &out, &errw)
	if code != 0 {
		t.Fatalf("archive revA exited %d: %s", code, errw.String())
	}
	// Same cells, different revision: appended, not silently discarded.
	code = archiveMain([]string{"-dir", corpusDir, "-add", run, "-rev", "revB"}, &out, &errw)
	if code != 0 {
		t.Fatalf("archive revB exited %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "previous generation") || !strings.Contains(out.String(), "gens=2") {
		t.Errorf("second revision did not append a listed generation:\n%s", out.String())
	}

	store, err := corpus.Open(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	runs, damaged, err := store.Runs()
	if err != nil || len(damaged) != 0 || len(runs) != 1 {
		t.Fatalf("store = %d runs, %d damaged, %v", len(runs), len(damaged), err)
	}
	id := runs[0].Manifest.ID
	gens, _, err := store.Generations(id)
	if err != nil || len(gens) != 2 {
		t.Fatalf("generations = %d, %v; want 2", len(gens), err)
	}
	if gens[0].Manifest.Revision != "revA" || gens[1].Manifest.Revision != "revB" {
		t.Fatalf("generation provenance: %s, %s", gens[0].Manifest.Revision, gens[1].Manifest.Revision)
	}

	// compare -dir defaults to latest vs previous; the cells are
	// bit-identical, so the ci profile passes.
	out.Reset()
	if code := compareMain([]string{"-dir", corpusDir, "-profile", "ci", id}, &out, &errw); code != 0 {
		t.Fatalf("corpus compare exited %d: %s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "PASS") || !strings.Contains(out.String(), "profile ci") {
		t.Errorf("corpus compare output wrong:\n%s", out.String())
	}
	if !strings.Contains(out.String(), id+"@") {
		t.Errorf("comparison labels missing generations:\n%s", out.String())
	}
	// @gen pins: comparing a generation against itself passes at the
	// exact profile; a bad selector errors.
	out.Reset()
	if code := compareMain([]string{"-dir", corpusDir, "-profile", "exact", id + "@revA", id + "@0"}, &out, &errw); code != 0 {
		t.Fatalf("pinned compare exited %d: %s", code, errw.String())
	}
	if code := compareMain([]string{"-dir", corpusDir, id + "@9"}, &out, &errw); code == 0 {
		t.Error("out-of-range generation selector succeeded")
	}

	// trend renders one point per generation with provenance.
	out.Reset()
	if code := trendMain([]string{"-dir", corpusDir, id}, &out, &errw); code != 0 {
		t.Fatalf("trend exited %d: %s", code, errw.String())
	}
	for _, want := range []string{"trend: run " + id, "revA", "revB", "steps"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("trend output missing %q:\n%s", want, out.String())
		}
	}

	// prune -keep 1: dry-run removes nothing, the real pass removes
	// exactly the older generation.
	out.Reset()
	if code := pruneMain([]string{"-dir", corpusDir, "-keep", "1", "-dry-run"}, &out, &errw); code != 0 {
		t.Fatalf("dry-run prune exited %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "would remove") || !strings.Contains(out.String(), "nothing removed") {
		t.Errorf("dry-run report wrong:\n%s", out.String())
	}
	if gens, _, _ = store.Generations(id); len(gens) != 2 {
		t.Fatalf("dry-run prune removed a generation: %d left", len(gens))
	}
	out.Reset()
	if code := pruneMain([]string{"-dir", corpusDir, "-keep", "1"}, &out, &errw); code != 0 {
		t.Fatalf("prune exited %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "pruned 1 generation(s)") {
		t.Errorf("prune report wrong:\n%s", out.String())
	}
	gens, _, err = store.Generations(id)
	if err != nil || len(gens) != 1 || gens[0].Manifest.Revision != "revB" {
		t.Fatalf("prune kept %d gens (first rev %s), want only revB", len(gens), gens[0].Manifest.Revision)
	}

	// A prune with no rules is a usage error, not a silent no-op.
	if code := pruneMain([]string{"-dir", corpusDir}, &out, &errw); code != 2 {
		t.Errorf("rule-less prune exited %d, want 2", code)
	}
}

// TestArchiveListingFlagsIncompleteRuns: the listing derives
// completeness from the cheap line count (corpus.CellsDone), and still
// flags a run whose stored cells are short.
func TestArchiveListingFlagsIncompleteRuns(t *testing.T) {
	run := writeRun(t, 7)
	corpusDir := filepath.Join(t.TempDir(), "corpus")
	var out, errw strings.Builder
	if code := archiveMain([]string{"-dir", corpusDir, "-add", run}, &out, &errw); code != 0 {
		t.Fatalf("archive exited %d: %s", code, errw.String())
	}

	store, err := corpus.Open(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	runs, _, err := store.Runs()
	if err != nil || len(runs) != 1 {
		t.Fatal(err)
	}
	cells, err := os.ReadFile(filepath.Join(runs[0].Dir, "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cut := strings.Index(string(cells), "\n") + 1
	if err := os.WriteFile(filepath.Join(runs[0].Dir, "cells.jsonl"), cells[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if code := archiveMain([]string{"-dir", corpusDir}, &out, &errw); code != 0 {
		t.Fatalf("listing exited %d: %s", code, errw.String())
	}
	want := fmt.Sprintf("1/%d cells", runs[0].Manifest.Cells)
	if !strings.Contains(out.String(), want) {
		t.Errorf("listing does not flag the incomplete run (want %q):\n%s", want, out.String())
	}
}

// TestArchiveListingSkipsDamagedRuns: a torn run in the store is
// listed as unreadable instead of failing the whole archive command.
func TestArchiveListingSkipsDamagedRuns(t *testing.T) {
	run := writeRun(t, 8)
	corpusDir := filepath.Join(t.TempDir(), "corpus")
	var out, errw strings.Builder
	if code := archiveMain([]string{"-dir", corpusDir, "-add", run}, &out, &errw); code != 0 {
		t.Fatalf("archive exited %d: %s", code, errw.String())
	}
	torn := filepath.Join(corpusDir, "feedface00000000")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(torn, "manifest.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if code := archiveMain([]string{"-dir", corpusDir}, &out, &errw); code != 0 {
		t.Fatalf("listing over a damaged store exited %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "1 run(s)") || !strings.Contains(out.String(), "UNREADABLE") {
		t.Errorf("damaged store listing wrong:\n%s", out.String())
	}

	// prune -damaged -dry-run sees it; the real pass clears it.
	out.Reset()
	if code := pruneMain([]string{"-dir", corpusDir, "-damaged"}, &out, &errw); code != 0 {
		t.Fatalf("damaged prune exited %d: %s", code, errw.String())
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Error("torn run survived prune -damaged")
	}
}

func TestReportMainRendersTableAndPlot(t *testing.T) {
	run := writeRun(t, 4)
	var out, errw strings.Builder
	if code := reportMain([]string{run}, &out, &errw); code != 0 {
		t.Fatalf("report exited %d: %s", code, errw.String())
	}
	for _, want := range []string{"run ", "algo", "steps vs density", "legend:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	if code := reportMain([]string{}, &out, &errw); code != 2 {
		t.Errorf("no-arg report exited %d, want 2", code)
	}
}

// TestSweepResumeCLI exercises the acceptance flow end to end at the
// command layer: a run killed mid-flight (simulated by truncating its
// checkpoint) resumed with -resume yields a bit-identical cells.jsonl.
func TestSweepResumeCLI(t *testing.T) {
	gf := flags("pushpull", "er", "64,128,256", "1,2", "0", 2, 11)
	grid, err := parseGrid(gf)
	if err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, _, err := corpus.ExecuteRun(refDir, grid, 3, false, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	killed := filepath.Join(t.TempDir(), "killed")
	if err := os.MkdirAll(killed, 0o755); err != nil {
		t.Fatal(err)
	}
	man, err := os.ReadFile(filepath.Join(refDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(killed, "manifest.json"), man, 0o644); err != nil {
		t.Fatal(err)
	}
	// Torn mid-line cut.
	if err := os.WriteFile(filepath.Join(killed, "cells.jsonl"), ref[:len(ref)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := corpus.ExecuteRun(killed, grid, 3, true, nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(killed, "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Error("resumed cells.jsonl differs from uninterrupted run")
	}

	// Without -resume the existing run is protected.
	if _, _, err := corpus.ExecuteRun(refDir, grid, 3, false, nil); err == nil {
		t.Error("re-running into an existing run dir without resume succeeded")
	}
}

// readManifest decodes dir's manifest.json as a generic JSON object.
func readManifest(t *testing.T, dir string) map[string]any {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, corpus.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSweepKillResume: a real `gossipsim sweep -out` child process
// SIGKILLed once its first cell is on disk, then continued with
// `sweep -resume`, leaves a cells.jsonl byte-equal to an uninterrupted
// in-process run and a manifest equal apart from provenance.
func TestSweepKillResume(t *testing.T) {
	gridArgs := []string{"-algos", "pushpull", "-models", "er",
		"-sizes", "256..4096", "-densities", "1,2", "-reps", "3", "-seed", "5", "-q"}
	grid, err := parseGrid(flags("pushpull", "er", "256..4096", "1,2", "0", 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, _, err := corpus.ExecuteRun(refDir, grid, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, corpus.CellsName))
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "run")
	child := gossipsimCmd(t, append([]string{"sweep", "-workers", "1", "-out", dir}, gridArgs...)...)
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		if done, err := corpus.CellsDone(dir); err == nil && done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			child.Process.Kill()
			t.Fatal("no cell reached disk within a minute")
		}
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait() // the SIGKILL exit status is expected
	done, err := corpus.CellsDone(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("killed with %d of %d cells on disk", done, len(grid.Scenarios()))

	resume := gossipsimCmd(t, append([]string{"sweep", "-resume", "-out", dir}, gridArgs...)...)
	if out, err := resume.CombinedOutput(); err != nil {
		t.Fatalf("sweep -resume: %v\n%s", err, out)
	}
	got, err := os.ReadFile(filepath.Join(dir, corpus.CellsName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Error("killed-and-resumed cells.jsonl differs from the uninterrupted run")
	}
	gotM, refM := readManifest(t, dir), readManifest(t, refDir)
	for _, m := range []map[string]any{gotM, refM} {
		delete(m, "created_at")
		delete(m, "workers")
		delete(m, "revision")
	}
	if !reflect.DeepEqual(gotM, refM) {
		t.Errorf("resumed manifest %v, want %v", gotM, refM)
	}
}

// TestShardCheckpointFailsLoudly: a run directory an older binary left
// as one shard of a grid (a "shard" manifest stanza, cells.jsonl holding
// only that shard's cells) is neither resumed nor imported as if it
// were the full grid — both fail naming the first out-of-place cell.
func TestShardCheckpointFailsLoudly(t *testing.T) {
	refDir := writeRun(t, 39)
	grid, err := parseGrid(flags("pushpull,sampled", "er", "64,128", "1,2", "0", 2, 39))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, corpus.CellsName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(ref), "\n")
	var owned []int
	var cells strings.Builder
	for i := 1; i < len(grid.Scenarios()); i += 3 {
		owned = append(owned, i)
		cells.WriteString(lines[i])
	}
	m := readManifest(t, refDir)
	m["shard"] = map[string]any{"spec": "1/3", "cells": owned}
	man, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "shard-1")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, corpus.ManifestName), man, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, corpus.CellsName), []byte(cells.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	const want = "cell index 1, want 0"
	resume := gossipsimCmd(t, "sweep", "-algos", "pushpull,sampled", "-models", "er",
		"-sizes", "64,128", "-densities", "1,2", "-reps", "2", "-seed", "39", "-q",
		"-resume", "-out", dir)
	out, err := resume.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !strings.Contains(string(out), want) {
		t.Errorf("sweep -resume over a shard checkpoint: %v\n%s", err, out)
	}
	after, err := os.ReadFile(filepath.Join(dir, corpus.CellsName))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != cells.String() {
		t.Error("failed resume rewrote the shard checkpoint")
	}

	corpusDir := filepath.Join(t.TempDir(), "corpus")
	var stdout, stderr strings.Builder
	if code := archiveMain([]string{"-dir", corpusDir, "-add", dir}, &stdout, &stderr); code == 0 || !strings.Contains(stderr.String(), want) {
		t.Errorf("archive -add of a shard checkpoint exited %d:\n%s", code, stderr.String())
	}
	store, err := corpus.Open(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Resolve(corpus.GridID(grid)); err == nil {
		t.Error("shard checkpoint was stored as the full run")
	}
}
