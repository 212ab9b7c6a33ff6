package corpus

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossip/internal/runner"
)

// shardRange returns the modular shard s of m as a CellRange.
func shardRange(s, m int) runner.CellRange { return runner.CellRange{Shard: s, Of: m} }

// TestShardKillResumeMergeBitIdentical is the tentpole's acceptance
// property: a grid executed as m shards at mixed worker counts — one
// shard killed mid-write and resumed — merges into a run whose
// cells.jsonl is byte-identical to the single-process sweep's.
func TestShardKillResumeMergeBitIdentical(t *testing.T) {
	g := testGrid(31)
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, _, err := ExecuteRun(refDir, g, 4, false, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, CellsName))
	if err != nil {
		t.Fatal(err)
	}

	const m = 3
	shardDirs := make([]string, m)
	for s := 0; s < m; s++ {
		dir := filepath.Join(t.TempDir(), "shard")
		// Mixed worker counts: shard results must not depend on them.
		if _, _, err := ExecuteRunShard(dir, g, shardRange(s, m), s+1, false, nil); err != nil {
			t.Fatalf("shard %d/%d: %v", s, m, err)
		}
		shardDirs[s] = dir
	}

	// Kill shard 1 mid-line (torn tail) and resume it.
	cells, err := os.ReadFile(filepath.Join(shardDirs[1], CellsName))
	if err != nil {
		t.Fatal(err)
	}
	killed := killAt(t, shardDirs[1], g, len(cells)/2)
	if _, _, err := ExecuteRunShard(killed, g, shardRange(1, m), 2, true, nil); err != nil {
		t.Fatalf("resume killed shard: %v", err)
	}
	resumed, err := os.ReadFile(filepath.Join(killed, CellsName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, cells) {
		t.Fatal("resumed shard cells differ from its uninterrupted run")
	}
	shardDirs[1] = killed

	mergedDir := filepath.Join(t.TempDir(), "merged")
	merged, err := MergeRunDirs(mergedDir, shardDirs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged.CellsPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Error("merged cells.jsonl differs from the single-process sweep")
	}
	if merged.Manifest.Shard != nil {
		t.Error("merged run still carries a shard stanza")
	}
	if done, err := merged.Complete(); err != nil || !done {
		t.Errorf("merged run Complete() = %v, %v", done, err)
	}
	// The merged run passes OpenRun's content-address verification and
	// joins the corpus like a native full run.
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if a, err := store.Import(merged, ""); err != nil || !a.Added {
		t.Errorf("import merged run: %+v err=%v", a, err)
	}
}

// TestRangeShardsMerge: explicit index ranges shard and merge too.
func TestRangeShardsMerge(t *testing.T) {
	g := testGrid(32)
	cells := len(g.Scenarios())
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, _, err := ExecuteRun(refDir, g, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, CellsName))
	if err != nil {
		t.Fatal(err)
	}
	cut := cells / 2
	a := filepath.Join(t.TempDir(), "a")
	b := filepath.Join(t.TempDir(), "b")
	if _, _, err := ExecuteRunShard(a, g, runner.CellRange{Lo: 0, Hi: cut}, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExecuteRunShard(b, g, runner.CellRange{Lo: cut, Hi: cells}, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	merged, err := MergeRunDirs(filepath.Join(t.TempDir(), "merged"), []string{b, a}) // order-insensitive
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged.CellsPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Error("range-sharded merge differs from the single-process sweep")
	}
}

// mustShard executes one shard run and returns its directory.
func mustShard(t *testing.T, g runner.Grid, cr runner.CellRange) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "shard")
	if _, _, err := ExecuteRunShard(dir, g, cr, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestMergeFailureModes: every malformed shard set is rejected with a
// telling error — never a silently short merged run.
func TestMergeFailureModes(t *testing.T) {
	g := testGrid(33)
	mergedDir := func() string { return filepath.Join(t.TempDir(), "merged") }

	t.Run("no runs", func(t *testing.T) {
		if _, err := MergeRuns(mergedDir(), nil); err == nil {
			t.Error("empty merge accepted")
		}
	})

	t.Run("overlapping shards", func(t *testing.T) {
		a := mustShard(t, g, shardRange(0, 2))
		b := mustShard(t, g, runner.CellRange{Lo: 0, Hi: 3}) // cells 0 and 2 also in shard 0/2
		_, err := MergeRunDirs(mergedDir(), []string{a, b})
		if err == nil || !strings.Contains(err.Error(), "owned by both") {
			t.Errorf("overlap error = %v", err)
		}
	})

	t.Run("missing cells", func(t *testing.T) {
		a := mustShard(t, g, shardRange(0, 3))
		b := mustShard(t, g, shardRange(1, 3)) // shard 2/3 never ran
		_, err := MergeRunDirs(mergedDir(), []string{a, b})
		if err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("gap error = %v", err)
		}
	})

	t.Run("mismatched grid IDs", func(t *testing.T) {
		a := mustShard(t, g, shardRange(0, 2))
		other := testGrid(34) // different seed = different configuration
		b := mustShard(t, other, shardRange(1, 2))
		_, err := MergeRunDirs(mergedDir(), []string{a, b})
		if err == nil || !strings.Contains(err.Error(), "different sweeps") {
			t.Errorf("mismatch error = %v", err)
		}
	})

	t.Run("torn shard tail", func(t *testing.T) {
		a := mustShard(t, g, shardRange(0, 2))
		b := mustShard(t, g, shardRange(1, 2))
		cells, err := os.ReadFile(filepath.Join(b, CellsName))
		if err != nil {
			t.Fatal(err)
		}
		torn := killAt(t, b, g, len(cells)-5) // torn final line: incomplete shard
		_, err = MergeRunDirs(mergedDir(), []string{a, torn})
		if err == nil || !strings.Contains(err.Error(), "resume it") {
			t.Errorf("torn-tail error = %v", err)
		}
	})

	t.Run("full run merges alone", func(t *testing.T) {
		full := filepath.Join(t.TempDir(), "full")
		if _, _, err := ExecuteRun(full, g, 2, false, nil); err != nil {
			t.Fatal(err)
		}
		merged, err := MergeRunDirs(mergedDir(), []string{full})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := os.ReadFile(filepath.Join(full, CellsName))
		got, _ := os.ReadFile(merged.CellsPath())
		if !bytes.Equal(got, want) {
			t.Error("degenerate one-run merge differs from its input")
		}
	})
}

// TestShardResumeRejectsDifferentShard: a checkpoint recorded for one
// shard cannot be continued as another.
func TestShardResumeRejectsDifferentShard(t *testing.T) {
	g := testGrid(35)
	dir := mustShard(t, g, shardRange(0, 2))
	if _, err := ResumeRunShard(dir, g, shardRange(1, 2)); err == nil {
		t.Error("resume under a different shard accepted")
	}
	if _, err := ResumeRunShard(dir, g, runner.CellRange{}); err == nil {
		t.Error("shard checkpoint resumed as a full run")
	}
	// The right shard resumes fine (a complete one is a no-op).
	if _, _, err := ExecuteRunShard(dir, g, shardRange(0, 2), 2, true, nil); err != nil {
		t.Errorf("same-shard resume failed: %v", err)
	}
}

// TestShardStoreGuards: shard runs are refused by Import, and a shard
// manifest tampered outside the content address is rejected at open.
func TestShardStoreGuards(t *testing.T) {
	g := testGrid(36)
	dir := mustShard(t, g, shardRange(0, 2))
	run, err := OpenRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Import(run, ""); err == nil || !strings.Contains(err.Error(), "merge") {
		t.Errorf("store imported a shard run: %v", err)
	}

	// Tamper the shard cell list: descending order must be rejected.
	path := filepath.Join(dir, ManifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(b, []byte(`"cells": [`), []byte(`"cells": [9999, `), 1)
	if bytes.Equal(tampered, b) {
		t.Fatal("test setup: shard cell list not found in manifest")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRun(dir); err == nil {
		t.Error("tampered shard cell list accepted")
	}
}

// TestResumeAndMergeRejectForeignScenarios: a stored record whose
// scenario no longer matches what the grid expands to — the signature
// of a checkpoint written by a build with different expansion rules
// (e.g. pre-rounding failure counts) — is rejected by both resume and
// merge instead of being silently mixed with fresh cells.
func TestResumeAndMergeRejectForeignScenarios(t *testing.T) {
	g := testGrid(38)
	dir := filepath.Join(t.TempDir(), "run")
	if _, _, err := ExecuteRun(dir, g, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CellsName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the first record's resolved failure count, keeping the line
	// valid JSON with the right index.
	tampered := bytes.Replace(b, []byte(`"failures":0`), []byte(`"failures":3`), 1)
	if bytes.Equal(tampered, b) {
		t.Fatal("test setup: failures field not found")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeRunShard(dir, g, runner.CellRange{}); err == nil || !strings.Contains(err.Error(), "expands it to") {
		t.Errorf("resume over a foreign scenario: %v", err)
	}
	run, err := OpenRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeRuns(filepath.Join(t.TempDir(), "m"), []*Run{run}); err == nil || !strings.Contains(err.Error(), "expands it to") {
		t.Errorf("merge over a foreign scenario: %v", err)
	}
}

// TestExecuteRunSurfacesProbeError: a resume probe that fails for any
// reason other than "no checkpoint here" must surface that error, not
// fall through to CreateRun's own confusing failure.
func TestExecuteRunSurfacesProbeError(t *testing.T) {
	g := testGrid(37)
	tmp := t.TempDir()
	// A regular file where the run directory should be: stat on
	// <file>/manifest.json fails with ENOTDIR, which is not ErrNotExist.
	blocker := filepath.Join(tmp, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(blocker, "run")
	_, _, err := ExecuteRun(dir, g, 1, true, nil)
	if err == nil || !strings.Contains(err.Error(), "probe checkpoint") {
		t.Errorf("probe failure not surfaced: %v", err)
	}
}
