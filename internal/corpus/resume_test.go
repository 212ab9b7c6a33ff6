package corpus

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossip/internal/runner"
)

// killAt simulates a sweep killed mid-run: a run directory whose
// cells.jsonl is the first cut bytes of the reference file — including,
// for cuts inside a line, the torn write a real kill leaves behind.
func killAt(t *testing.T, refDir string, g runner.Grid, cut int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "killed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	m, err := os.ReadFile(filepath.Join(refDir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), m, 0o644); err != nil {
		t.Fatal(err)
	}
	cells, err := os.ReadFile(filepath.Join(refDir, CellsName))
	if err != nil {
		t.Fatal(err)
	}
	if cut > len(cells) {
		cut = len(cells)
	}
	if err := os.WriteFile(filepath.Join(dir, CellsName), cells[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestKillAndResumeBitIdentical is the subsystem's acceptance property:
// a sweep killed at any point and restarted with resume produces a
// cells.jsonl bit-identical to an uninterrupted run at the same seed
// and worker count.
func TestKillAndResumeBitIdentical(t *testing.T) {
	g := testGrid(21)
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, _, err := ExecuteRun(refDir, g, 4, false, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, CellsName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(ref, []byte("\n"))
	lines = lines[:len(lines)-1] // drop the empty tail after the final \n

	// Cut points: nothing written, one complete cell, a torn line
	// (mid-cell), most of the run, and a torn final line.
	cuts := []int{
		0,
		len(lines[0]),
		len(lines[0]) + len(lines[1])/2,
		len(ref) - len(lines[len(lines)-1]),
		len(ref) - 7,
	}
	for _, cut := range cuts {
		for _, workers := range []int{1, 4} {
			dir := killAt(t, refDir, g, cut)
			run, recs, err := ExecuteRun(dir, g, workers, true, nil)
			if err != nil {
				t.Fatalf("resume at cut %d (workers %d): %v", cut, workers, err)
			}
			if len(recs) != run.Manifest.Cells {
				t.Fatalf("resume at cut %d: %d records, want %d", cut, len(recs), run.Manifest.Cells)
			}
			got, err := os.ReadFile(filepath.Join(dir, CellsName))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("cells.jsonl after resume at cut %d (workers %d) differs from uninterrupted run", cut, workers)
			}
		}
	}
}

// TestResumeSkipsCompletedCells proves resume re-executes only the
// missing suffix, via an ExecFunc that counts invocations.
func TestResumeSkipsCompletedCells(t *testing.T) {
	g := testGrid(22)
	cells := len(g.Scenarios())
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, _, err := ExecuteRun(refDir, g, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, CellsName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(ref, []byte("\n"))
	done := 3
	cut := 0
	for _, l := range lines[:done] {
		cut += len(l)
	}
	dir := killAt(t, refDir, g, cut)

	w, err := ResumeRun(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	if w.Done() != done {
		t.Fatalf("Done() = %d, want %d", w.Done(), done)
	}
	executed := 0
	r := &runner.Runner{
		Workers: 1,
		Seed:    g.Seed,
		OnCell:  w.OnCell,
		Skip:    w.Skip,
		Exec: func(s runner.Scenario, rep int, seed uint64) runner.Metrics {
			if rep == 0 {
				executed++
			}
			return runner.Execute(s, rep, seed)
		},
	}
	r.RunGrid(g)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if executed != cells-done {
		t.Errorf("executed %d cells, want %d (skip the %d done)", executed, cells-done, done)
	}
	got, err := os.ReadFile(filepath.Join(dir, CellsName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Error("resumed cells.jsonl differs from reference")
	}
}

// TestExecuteRunTeeStreamsInOrder: the onRecord tee sees the complete
// record sequence in strict cell order — loaded prefix first on a
// resume, then each fresh cell — matching the final file.
func TestExecuteRunTeeStreamsInOrder(t *testing.T) {
	g := testGrid(27)
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, _, err := ExecuteRun(refDir, g, 4, false, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, CellsName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(ref, []byte("\n"))
	cut := len(lines[0]) + len(lines[1]) + len(lines[2])/2 // 2 cells + torn line
	dir := killAt(t, refDir, g, cut)

	var seen []runner.CellRecord
	_, recs, err := ExecuteRun(dir, g, 4, true, func(r runner.CellRecord) {
		seen = append(seen, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(recs) {
		t.Fatalf("tee saw %d records, want %d", len(seen), len(recs))
	}
	var teed, final bytes.Buffer
	if err := runner.WriteRecordJSONL(&teed, seen); err != nil {
		t.Fatal(err)
	}
	if err := runner.WriteRecordJSONL(&final, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(teed.Bytes(), final.Bytes()) || !bytes.Equal(teed.Bytes(), ref) {
		t.Error("tee sequence differs from the final record set")
	}
}

// TestResumeRecoversTornCreate: a process killed before CreateRun
// durably wrote its manifest leaves a directory holding a torn (or
// empty) manifest.json; a blind retry with resume must clear the
// wreckage and recreate the run instead of failing the resume — and
// the recreated run is byte-identical to an uninterrupted one.
func TestResumeRecoversTornCreate(t *testing.T) {
	g := testGrid(29)
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, _, err := ExecuteRun(refDir, g, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(refDir, CellsName))
	if err != nil {
		t.Fatal(err)
	}
	for name, files := range map[string]map[string][]byte{
		"torn manifest":            {ManifestName: []byte(`{"id": "tor`)},
		"empty manifest":           {ManifestName: nil},
		"torn manifest with cells": {ManifestName: []byte(`{"id`), CellsName: ref[:len(ref)/3]},
	} {
		dir := filepath.Join(t.TempDir(), "run")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for f, b := range files {
			if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		run, recs, err := ExecuteRun(dir, g, 2, true, nil)
		if err != nil {
			t.Fatalf("%s: resume did not recover: %v", name, err)
		}
		if len(recs) != run.Manifest.Cells {
			t.Fatalf("%s: recovered run has %d of %d cells", name, len(recs), run.Manifest.Cells)
		}
		got, err := os.ReadFile(filepath.Join(dir, CellsName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: recovered cells.jsonl differs from uninterrupted run", name)
		}
	}

	// Without resume, a torn manifest still refuses CreateRun — only the
	// retry path may clear it.
	dir := filepath.Join(t.TempDir(), "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"id`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExecuteRun(dir, g, 2, false, nil); err == nil {
		t.Error("ExecuteRun without resume claimed a directory holding a torn manifest")
	}

	// A manifest that parses but names a different configuration is NOT
	// wreckage: it keeps failing loudly instead of being destroyed.
	otherDir := filepath.Join(t.TempDir(), "other")
	if _, _, err := ExecuteRun(otherDir, testGrid(30), 2, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExecuteRun(otherDir, g, 2, true, nil); err == nil {
		t.Error("resume over a different configuration's run accepted")
	}
	if _, err := os.Stat(filepath.Join(otherDir, ManifestName)); err != nil {
		t.Error("different configuration's manifest was destroyed by recovery")
	}
}

func TestResumeRejectsDifferentConfiguration(t *testing.T) {
	g := testGrid(23)
	dir := filepath.Join(t.TempDir(), "run")
	if _, _, err := ExecuteRun(dir, g, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	other := testGrid(24) // different seed = different configuration
	if _, err := ResumeRun(dir, other); err == nil {
		t.Error("resume under a different seed accepted")
	}
	other = testGrid(23)
	other.Sizes = []int{64}
	if _, err := ResumeRun(dir, other); err == nil {
		t.Error("resume under a different grid accepted")
	}
}

func TestCreateRunRefusesExisting(t *testing.T) {
	g := testGrid(25)
	dir := filepath.Join(t.TempDir(), "run")
	if _, _, err := ExecuteRun(dir, g, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateRun(dir, NewManifest(g)); err == nil {
		t.Error("CreateRun over an existing run accepted")
	}
	// ExecuteRun without resume must refuse too: recorded results are
	// not silently truncated.
	if _, _, err := ExecuteRun(dir, g, 2, false, nil); err == nil {
		t.Error("ExecuteRun without resume overwrote an existing run")
	}
	// With resume, a complete run is a no-op re-yielding its records.
	_, recs, err := ExecuteRun(dir, g, 2, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(g.Scenarios()) {
		t.Errorf("resume of complete run returned %d records", len(recs))
	}
}

func TestScanCellsCorruption(t *testing.T) {
	g := testGrid(26)
	dir := filepath.Join(t.TempDir(), "run")
	if _, _, err := ExecuteRun(dir, g, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CellsName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))

	// Garbage in the middle (terminated, data after it): corruption.
	mid := append([]byte{}, lines[0]...)
	mid = append(mid, []byte("not json\n")...)
	mid = append(mid, lines[1]...)
	if err := os.WriteFile(path, mid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanCells(path); err == nil {
		t.Error("mid-file garbage accepted")
	}

	// A parseable line with the wrong index: corruption even at EOF.
	skip := append(append([]byte{}, lines[0]...), lines[2]...)
	if err := os.WriteFile(path, skip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanCells(path); err == nil {
		t.Error("index gap accepted")
	}

	// A terminated but unparseable final line: torn write, valid prefix.
	torn := append(append([]byte{}, lines[0]...), []byte("{\"half\":\n")...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, off, err := scanCells(path)
	if err != nil || len(recs) != 1 || off != int64(len(lines[0])) {
		t.Errorf("torn final line: recs=%d off=%d err=%v; want 1, %d, nil", len(recs), off, err, len(lines[0]))
	}

	// A missing file is an empty prefix.
	if recs, off, err := scanCells(filepath.Join(dir, "nope.jsonl")); err != nil || len(recs) != 0 || off != 0 {
		t.Errorf("missing file: recs=%d off=%d err=%v", len(recs), off, err)
	}
}

// TestResumeRejectsForeignScenarios: a stored record whose scenario no
// longer matches what the grid expands to — the signature of a
// checkpoint written by a build with different expansion rules (e.g.
// pre-rounding failure counts) — is rejected by resume instead of
// being silently mixed with fresh cells.
func TestResumeRejectsForeignScenarios(t *testing.T) {
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
	if _, err := ResumeRun(dir, g); err == nil || !strings.Contains(err.Error(), "expands it to") {
		t.Errorf("resume over a foreign scenario: %v", err)
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
