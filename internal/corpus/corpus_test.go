package corpus

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossip/internal/runner"
)

// testGrid is a small but non-trivial grid: two algorithms (one with a
// collapsing knob axis), two sizes, two densities.
func testGrid(seed uint64) runner.Grid {
	return runner.Grid{
		Algos:     []string{"pushpull", "sampled"},
		Models:    []string{"er"},
		Sizes:     []int{64, 128},
		Densities: []float64{1, 2},
		Reps:      2,
		Seed:      seed,
	}
}

func runGrid(t *testing.T, g runner.Grid, workers int) []runner.CellResult {
	t.Helper()
	r := &runner.Runner{Workers: workers}
	return r.RunGrid(g)
}

func TestGridIDCanonicalization(t *testing.T) {
	// A grid with defaulted axes and one with those defaults explicit
	// are the same configuration: same ID.
	implicit := runner.Grid{Seed: 3}
	explicit := runner.Grid{
		Algos: []string{"pushpull"}, Models: []string{"er"},
		Sizes: []int{1024}, Densities: []float64{1},
		Failures: []runner.FailureSpec{{}},
		Reps:     1, Seed: 3,
	}
	if GridID(implicit) != GridID(explicit) {
		t.Errorf("canonical grids hash differently: %s vs %s", GridID(implicit), GridID(explicit))
	}
	// The seed is part of the configuration; so is every axis.
	if GridID(runner.Grid{Seed: 3}) == GridID(runner.Grid{Seed: 4}) {
		t.Error("different seeds share an ID")
	}
	a, b := testGrid(1), testGrid(1)
	b.Densities = []float64{1, 4}
	if GridID(a) == GridID(b) {
		t.Error("different density axes share an ID")
	}
}

func TestRunRoundTrip(t *testing.T) {
	g := testGrid(5)
	dir := filepath.Join(t.TempDir(), "run")
	_, recs, err := ExecuteRun(dir, g, 4, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(g.Scenarios()); len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}

	// archive → load → byte-identical cells: re-serializing the loaded
	// records reproduces the stored file exactly.
	run, err := OpenRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := run.Records()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runner.WriteRecordJSONL(&buf, loaded); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(run.CellsPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), onDisk) {
		t.Error("loaded records do not re-serialize to the stored bytes")
	}
	if done, err := run.Complete(); err != nil || !done {
		t.Errorf("Complete() = %v, %v; want true, nil", done, err)
	}

	// The streamed checkpoint equals the one-shot WriteRun of the same
	// results: streaming does not change the format.
	results := runGrid(t, g, 1)
	dir2 := filepath.Join(t.TempDir(), "oneshot")
	if _, err := WriteRun(dir2, NewManifest(g), runner.Records(results)); err != nil {
		t.Fatal(err)
	}
	oneShot, err := os.ReadFile(filepath.Join(dir2, CellsName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, oneShot) {
		t.Error("streamed cells.jsonl differs from one-shot WriteRun")
	}
}

func TestOpenRunRejectsTamperedManifest(t *testing.T) {
	g := testGrid(6)
	dir := filepath.Join(t.TempDir(), "run")
	if _, _, err := ExecuteRun(dir, g, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	// Flip the recorded seed without re-deriving the ID.
	path := filepath.Join(dir, ManifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(b, []byte(`"seed": 6`), []byte(`"seed": 7`), 1)
	if bytes.Equal(tampered, b) {
		t.Fatal("test setup: seed not found in manifest")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRun(dir); err == nil {
		t.Error("tampered manifest accepted")
	}
}

func TestStoreArchiveDedupesSameRevisionOnly(t *testing.T) {
	g := testGrid(7)
	results := runGrid(t, g, 2)
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := store.Archive(g, Provenance{Workers: 2, CreatedAt: "2026-07-26T00:00:00Z", Revision: "revA"}, results)
	if err != nil || !a1.Added || a1.Prev != nil {
		t.Fatalf("first archive: %+v err=%v", a1, err)
	}
	// A bit-identical re-archive at the same revision dedupes — and
	// the decision carries both generations' provenance.
	a2, err := store.Archive(g, Provenance{Workers: 8, CreatedAt: "2026-07-27T00:00:00Z", Revision: "revA"}, results)
	if err != nil || a2.Added {
		t.Fatalf("same-revision re-archive: %+v err=%v, want dedupe", a2, err)
	}
	if a2.Prev == nil || a2.Run != a2.Prev {
		t.Errorf("dedupe did not report the existing generation: %+v", a2)
	}
	if a2.Incoming.CreatedAt != "2026-07-27T00:00:00Z" || a2.Run.Manifest.CreatedAt != "2026-07-26T00:00:00Z" {
		t.Errorf("dedupe decision lost a provenance: incoming %q, kept %q",
			a2.Incoming.CreatedAt, a2.Run.Manifest.CreatedAt)
	}
	// The same results archived from a *different* revision append a
	// new generation: the historical bug was dropping this on the floor.
	a3, err := store.Archive(g, Provenance{Workers: 2, CreatedAt: "2026-07-28T00:00:00Z", Revision: "revB"}, results)
	if err != nil || !a3.Added {
		t.Fatalf("new-revision archive: %+v err=%v, want appended", a3, err)
	}
	if a3.Prev == nil || a3.Prev.Manifest.Revision != "revA" {
		t.Errorf("append did not report the previous generation: %+v", a3)
	}
	gens, damaged, err := store.Generations(a1.Run.Manifest.ID)
	if err != nil || len(damaged) != 0 || len(gens) != 2 {
		t.Fatalf("Generations = %d runs, %d damaged, err %v; want 2, 0, nil", len(gens), len(damaged), err)
	}
	if gens[0].Manifest.Revision != "revA" || gens[1].Manifest.Revision != "revB" {
		t.Errorf("generations out of order: %s then %s", gens[0].Manifest.Revision, gens[1].Manifest.Revision)
	}

	runs, damaged, err := store.Runs()
	if err != nil || len(damaged) != 0 {
		t.Fatal(err, damaged)
	}
	if len(runs) != 1 {
		t.Fatalf("store lists %d runs, want 1 (latest generation per ID)", len(runs))
	}
	if runs[0].Manifest.Revision != "revB" {
		t.Errorf("Runs returned generation %q, want the latest (revB)", runs[0].Manifest.Revision)
	}

	// A different seed is a different configuration: stored separately.
	g2 := testGrid(8)
	if a, err := store.Archive(g2, Provenance{Workers: 2}, runGrid(t, g2, 2)); err != nil || !a.Added {
		t.Fatalf("different-seed archive: %+v err=%v", a, err)
	}
	if runs, _, _ = store.Runs(); len(runs) != 2 {
		t.Fatalf("store holds %d runs, want 2", len(runs))
	}
}

func TestStoreImportAndSelect(t *testing.T) {
	g := testGrid(9)
	dir := filepath.Join(t.TempDir(), "run")
	run, _, err := ExecuteRun(dir, g, 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if a, err := store.Import(run, ""); err != nil || !a.Added {
		t.Fatalf("import: %+v err=%v", a, err)
	}
	// Re-import of the same directory is bit-identical at the same
	// revision: deduped.
	if a, _ := store.Import(run, ""); a.Added {
		t.Error("re-import did not dedupe")
	}

	// Selection by filter, through the filtered listing.
	hits, _, err := store.Summaries(Filter{Algo: "sampled", N: 128})
	if err != nil || len(hits) != 1 {
		t.Fatalf("Summaries(sampled, 128) = %d runs, err %v; want 1", len(hits), err)
	}
	miss, _, err := store.Summaries(Filter{Algo: "memory"})
	if err != nil || len(miss) != 0 {
		t.Fatalf("Summaries(memory) = %d runs, err %v; want 0", len(miss), err)
	}
	if hits, _, _ = store.Summaries(Filter{Density: 2}); len(hits) != 1 {
		t.Errorf("Summaries(density=2) = %d runs, want 1", len(hits))
	}
	if miss, _, _ = store.Summaries(Filter{Density: 3}); len(miss) != 0 {
		t.Errorf("Summaries(density=3) = %d runs, want 0", len(miss))
	}
}

func TestFilterRecordsAndJoin(t *testing.T) {
	g := testGrid(10)
	recs := runner.Records(runGrid(t, g, 2))
	only := FilterRecords(recs, Filter{Algo: "pushpull", Density: 2})
	if len(only) != 2 { // sizes 64, 128
		t.Fatalf("FilterRecords = %d records, want 2", len(only))
	}
	for _, r := range only {
		if r.Algo != "pushpull" || r.Density != 2 {
			t.Errorf("filtered record %v does not match", r.Scenario)
		}
	}

	// Join matches on coordinates regardless of cell order; a cell
	// present on one side only is reported as such.
	rev := make([]runner.CellRecord, len(recs))
	for i, r := range recs {
		rev[len(recs)-1-i] = r
	}
	pairs, onlyA, onlyB := Join(recs, rev[:len(rev)-1]) // drop recs[0] from b
	if len(onlyA) != 1 || KeyOf(onlyA[0].Scenario) != KeyOf(recs[0].Scenario) {
		t.Fatalf("Join onlyA = %v, want the dropped cell", onlyA)
	}
	if len(onlyB) != 0 || len(pairs) != len(recs)-1 {
		t.Fatalf("Join: %d pairs, %d onlyB; want %d, 0", len(pairs), len(onlyB), len(recs)-1)
	}
	for _, p := range pairs {
		if KeyOf(p[0].Scenario) != KeyOf(p[1].Scenario) {
			t.Fatalf("pair joins different coordinates: %v vs %v", p[0].Scenario, p[1].Scenario)
		}
	}
}

// TestCellsDone: the listing's cheap progress probe counts exactly
// the completed (newline-terminated) cells, without parsing — a torn
// trailing write is not counted, and a missing file is zero cells.
func TestCellsDone(t *testing.T) {
	g := testGrid(33)
	dir := filepath.Join(t.TempDir(), "run")
	if _, _, err := ExecuteRun(dir, g, 2, false, nil); err != nil {
		t.Fatal(err)
	}
	want := len(g.Scenarios())
	if n, err := CellsDone(dir); err != nil || n != want {
		t.Errorf("CellsDone = %d, %v; want %d, nil", n, err, want)
	}

	// An unterminated torn tail does not count as a completed cell.
	f, err := os.OpenFile(filepath.Join(dir, CellsName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":99,"al`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := CellsDone(dir); err != nil || n != want {
		t.Errorf("CellsDone with torn tail = %d, %v; want %d, nil", n, err, want)
	}

	// The probe agrees with the authoritative scan on a mid-run
	// checkpoint: a prefix of complete lines.
	b, err := os.ReadFile(filepath.Join(dir, CellsName))
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.IndexByte(b, '\n') + 1
	partial := filepath.Join(t.TempDir(), "partial")
	if err := os.MkdirAll(partial, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(partial, CellsName), b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := CellsDone(partial); err != nil || n != 1 {
		t.Errorf("CellsDone on 1-cell prefix = %d, %v; want 1, nil", n, err)
	}

	if n, err := CellsDone(t.TempDir()); err != nil || n != 0 {
		t.Errorf("CellsDone on empty dir = %d, %v; want 0, nil", n, err)
	}
}

var errInjected = errors.New("injected fault")

// faultyFile does the real Sync and Close, then reports the injected
// fault from the one named by op.
type faultyFile struct {
	*os.File
	op string
}

func (f faultyFile) Sync() error {
	if err := f.File.Sync(); err != nil || f.op != "sync" {
		return err
	}
	return errInjected
}

func (f faultyFile) Close() error {
	if err := f.File.Close(); err != nil || f.op != "close" {
		return err
	}
	return errInjected
}

// injectFault makes op ("sync" or "close") fail on every file the corpus
// fsyncs whose base name starts with prefix, until the test ends.
func injectFault(t *testing.T, prefix, op string) {
	saved := durable
	t.Cleanup(func() { durable = saved })
	durable = func(f *os.File) syncFile {
		if !strings.HasPrefix(filepath.Base(f.Name()), prefix) {
			return f
		}
		return faultyFile{f, op}
	}
}

// TestArchiveFailsOnSyncOrCloseError: a failing fsync or close of the
// manifest, the cells file or the index is the filesystem saying the
// bytes may not be on disk, so Archive must return that error. A fault in
// the generation's own files must also leave no generation committed.
func TestArchiveFailsOnSyncOrCloseError(t *testing.T) {
	g := testGrid(7)
	results := runGrid(t, g, 2)
	for _, name := range []string{ManifestName, CellsName, ".tmp-index-"} {
		for _, op := range []string{"sync", "close"} {
			t.Run(name+"/"+op, func(t *testing.T) {
				injectFault(t, name, op)
				store, err := Open(filepath.Join(t.TempDir(), "corpus"))
				if err != nil {
					t.Fatal(err)
				}
				_, err = store.Archive(g, Provenance{Workers: 2, CreatedAt: "2026-07-26T00:00:00Z", Revision: "revA"}, results)
				if !errors.Is(err, errInjected) {
					t.Errorf("Archive returned %v, want the injected fault", err)
				}
				if gens, _, _ := store.Generations(NewManifest(g).ID); name != ".tmp-index-" && len(gens) != 0 {
					t.Errorf("%d generations committed, want 0", len(gens))
				}
			})
		}
	}
}

// TestCheckpointFailsOnSyncOrCloseError: the same for a checkpointed run.
// CreateRun writes the manifest and Writer.Close fsyncs and closes the
// streamed cells file; either fault must fail ExecuteRun.
func TestCheckpointFailsOnSyncOrCloseError(t *testing.T) {
	g := testGrid(7)
	for _, name := range []string{ManifestName, CellsName} {
		for _, op := range []string{"sync", "close"} {
			t.Run(name+"/"+op, func(t *testing.T) {
				injectFault(t, name, op)
				_, _, err := ExecuteRun(filepath.Join(t.TempDir(), "run"), g, 2, false, nil)
				if !errors.Is(err, errInjected) {
					t.Errorf("ExecuteRun returned %v, want the injected fault", err)
				}
			})
		}
	}
}
