package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossip/internal/corpus"
	"gossip/internal/runner"
)

// writeShards executes the grid as m shard runs and returns their
// directories.
func writeShards(t *testing.T, grid runner.Grid, m int) []string {
	t.Helper()
	dirs := make([]string, m)
	for s := 0; s < m; s++ {
		cr, err := runner.ParseCellRange(strings.Join([]string{itoa(s), itoa(m)}, "/"))
		if err != nil {
			t.Fatal(err)
		}
		dirs[s] = filepath.Join(t.TempDir(), "shard")
		if _, _, err := corpus.ExecuteRunShard(dirs[s], grid, cr, 2, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

func itoa(i int) string { return string(rune('0' + i)) }

// TestMergeMainRoundTrip: shards produced by the shard execution path
// merge at the command layer into a run byte-identical to the
// single-process sweep, and the merged run compares clean against it.
func TestMergeMainRoundTrip(t *testing.T) {
	grid, err := parseGrid(flags("pushpull,sampled", "er", "64,128", "1,2", "0", 2, 41))
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

	shards := writeShards(t, grid, 3)
	mergedDir := filepath.Join(t.TempDir(), "merged")
	var out, errw strings.Builder
	if code := mergeMain(append([]string{"-out", mergedDir}, shards...), &out, &errw); code != 0 {
		t.Fatalf("merge exited %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "merged 3 shard(s)") {
		t.Errorf("merge summary wrong:\n%s", out.String())
	}
	got, err := os.ReadFile(filepath.Join(mergedDir, "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Error("merged cells.jsonl differs from single-process sweep")
	}
	// The CI gate's verdict on the merged run: zero-tolerance clean.
	out.Reset()
	if code := compareMain([]string{refDir, mergedDir}, &out, &errw); code != 0 {
		t.Fatalf("compare(ref, merged) exited %d:\n%s%s", code, out.String(), errw.String())
	}
}

// TestMergeMainRejections: the command surfaces every malformed shard
// set with exit 1, and usage errors with exit 2.
func TestMergeMainRejections(t *testing.T) {
	grid, err := parseGrid(flags("pushpull", "er", "64,128", "1,2", "0", 1, 42))
	if err != nil {
		t.Fatal(err)
	}
	shards := writeShards(t, grid, 3)
	var out, errw strings.Builder

	// Usage: -out and at least one shard are required.
	if code := mergeMain(nil, &out, &errw); code != 2 {
		t.Errorf("no-arg merge exited %d, want 2", code)
	}
	if code := mergeMain([]string{"-out", filepath.Join(t.TempDir(), "m")}, &out, &errw); code != 2 {
		t.Errorf("no-shard merge exited %d, want 2", code)
	}

	// Missing cells: one shard withheld.
	errw.Reset()
	if code := mergeMain([]string{"-out", filepath.Join(t.TempDir(), "m"), shards[0], shards[1]}, &out, &errw); code != 1 {
		t.Errorf("gappy merge exited %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "missing") {
		t.Errorf("gap not reported: %s", errw.String())
	}

	// Overlap: a shard listed twice.
	errw.Reset()
	if code := mergeMain([]string{"-out", filepath.Join(t.TempDir(), "m"), shards[0], shards[0], shards[1], shards[2]}, &out, &errw); code != 1 {
		t.Errorf("overlapping merge exited %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "owned by both") {
		t.Errorf("overlap not reported: %s", errw.String())
	}

	// A shard of a different configuration.
	other, err := parseGrid(flags("pushpull", "er", "64,128", "1,2", "0", 1, 43))
	if err != nil {
		t.Fatal(err)
	}
	otherShards := writeShards(t, other, 3)
	errw.Reset()
	if code := mergeMain([]string{"-out", filepath.Join(t.TempDir(), "m"), shards[0], otherShards[1], shards[2]}, &out, &errw); code != 1 {
		t.Errorf("mixed-config merge exited %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "different sweeps") {
		t.Errorf("config mismatch not reported: %s", errw.String())
	}

	// A missing shard directory errors cleanly.
	errw.Reset()
	if code := mergeMain([]string{"-out", filepath.Join(t.TempDir(), "m"), filepath.Join(t.TempDir(), "nope")}, &out, &errw); code != 1 {
		t.Errorf("missing shard dir exited %d, want 1", code)
	}
}

// TestShardSweepKillResumeCLI mirrors TestSweepResumeCLI for a shard:
// a killed shard checkpoint resumed under the same -shard yields the
// same bytes as its uninterrupted sibling, and the resumed shard still
// merges cleanly.
func TestShardSweepKillResumeCLI(t *testing.T) {
	grid, err := parseGrid(flags("pushpull", "er", "64,128,256", "1,2", "0", 2, 44))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := runner.ParseCellRange("1/2")
	if err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, _, err := corpus.ExecuteRunShard(refDir, grid, cr, 2, false, nil); err != nil {
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
	if err := os.WriteFile(filepath.Join(killed, "cells.jsonl"), ref[:len(ref)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := corpus.ExecuteRunShard(killed, grid, cr, 3, true, nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(killed, "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Error("resumed shard cells.jsonl differs from uninterrupted shard")
	}

	other, err := runner.ParseCellRange("0/2")
	if err != nil {
		t.Fatal(err)
	}
	otherDir := filepath.Join(t.TempDir(), "other")
	if _, _, err := corpus.ExecuteRunShard(otherDir, grid, other, 1, false, nil); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	mergedDir := filepath.Join(t.TempDir(), "merged")
	if code := mergeMain([]string{"-out", mergedDir, otherDir, killed}, &out, &errw); code != 0 {
		t.Fatalf("merge after resume exited %d: %s", code, errw.String())
	}
}
