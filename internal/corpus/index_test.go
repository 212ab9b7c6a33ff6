package corpus

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gossip/internal/runner"
)

// indexFilters is the filter battery every index-vs-full-scan
// equivalence check runs: hits, misses, axis combinations, the density
// epsilon, and the zero filter.
var indexFilters = []Filter{
	{},
	{Algo: "pushpull"},
	{Algo: "sampled", N: 128},
	{Algo: "memory"},
	{Model: "er"},
	{Model: "powerlaw"},
	{N: 64},
	{N: 4096},
	{Density: 2},
	{Density: 2.0000000000001}, // within the relative epsilon
	{Density: 3},
	{Algo: "pushpull", Model: "er", N: 64, Density: 1},
}

// requireIndexMatchesScan asserts that for every filter in the battery
// the index-backed listing is byte-identical (as JSON) to the full-scan
// listing — the index layer's correctness claim.
func requireIndexMatchesScan(t *testing.T, store *Store) {
	t.Helper()
	idx, err := store.LoadIndex()
	if err != nil {
		t.Fatalf("load index: %v", err)
	}
	for _, f := range indexFilters {
		fast := idx.Summaries(f)
		slow, _, err := store.Summaries(f)
		if err != nil {
			t.Fatalf("full scan (filter %+v): %v", f, err)
		}
		fb, _ := json.Marshal(fast)
		sb, _ := json.Marshal(slow)
		if string(fb) != string(sb) {
			t.Errorf("filter %+v: index answer diverges from full scan\nindex: %s\nscan:  %s", f, fb, sb)
		}
	}
}

// archiveResults archives g's results with the given revision, at a
// distinct creation instant so generation names never collide.
func archiveResults(t *testing.T, store *Store, g runner.Grid, rev string, results []runner.CellResult) *Appended {
	t.Helper()
	a, err := store.Archive(g, Provenance{
		Workers:   2,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Revision:  rev,
	}, results)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestIndexMaintainedIncrementally(t *testing.T) {
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	g1 := testGrid(1)
	res1 := runGrid(t, g1, 4)

	// First archive bootstraps the index.
	archiveResults(t, store, g1, "rev-a", res1)
	if _, err := os.Stat(store.IndexPath()); err != nil {
		t.Fatalf("archive did not create the index: %v", err)
	}
	requireIndexMatchesScan(t, store)

	// A second generation of the same ID (new revision).
	archiveResults(t, store, g1, "rev-b", res1)
	requireIndexMatchesScan(t, store)

	// A dedupe (same revision, bit-identical cells) changes nothing.
	before, _ := os.ReadFile(store.IndexPath())
	a := archiveResults(t, store, g1, "rev-b", res1)
	if a.Added {
		t.Fatal("dedupe expected")
	}
	requireIndexMatchesScan(t, store)
	_ = before

	// A second run ID via Import.
	g2 := testGrid(2)
	g2.Algos = []string{"pushpull"}
	g2.Sizes = []int{64}
	dir := filepath.Join(t.TempDir(), "run2")
	run2, _, err := ExecuteRun(dir, g2, 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Import(run2, "rev-c"); err != nil {
		t.Fatal(err)
	}
	requireIndexMatchesScan(t, store)

	// Prune removes the old generation and re-indexes.
	plan, err := store.Prune(PruneOptions{Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Victims) == 0 {
		t.Fatal("prune removed nothing")
	}
	requireIndexMatchesScan(t, store)

	// The incrementally maintained index equals a from-scratch rebuild.
	incr, err := store.LoadIndex()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := store.RebuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(incr, rebuilt) {
		ib, _ := json.Marshal(incr)
		rb, _ := json.Marshal(rebuilt)
		t.Errorf("incremental index diverges from rebuild:\nincremental: %s\nrebuilt:     %s", ib, rb)
	}
}

func TestIndexRebuildRepairsOutOfBandMutation(t *testing.T) {
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(1)
	archiveResults(t, store, g, "rev-a", runGrid(t, g, 4))

	// Mutate the store behind the index's back: write a whole new run
	// directory the way a non-index-aware tool would.
	g2 := testGrid(9)
	m := NewManifest(g2)
	m.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	m.Revision = "oob"
	if _, err := WriteRun(filepath.Join(store.Path(m.ID), GenName(m)), m, runner.Records(runGrid(t, g2, 4))); err != nil {
		t.Fatal(err)
	}

	// The stale index is now wrong — and RebuildIndex repairs it.
	idx, err := store.LoadIndex()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.Entries[m.ID]; ok {
		t.Fatal("index saw the out-of-band run without a rebuild?")
	}
	if _, err := store.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	requireIndexMatchesScan(t, store)
}

func TestIndexSkipsAndFlagsDamage(t *testing.T) {
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(1)
	archiveResults(t, store, g, "rev-a", runGrid(t, g, 4))

	// A torn flat run: a manifest that does not parse.
	torn := store.Path("deadbeef00000000")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(torn, ManifestName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := store.RebuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := idx.Entries["deadbeef00000000"]
	if !ok || len(e.Damaged) != 1 || len(e.Generations) != 0 {
		t.Fatalf("damage not flagged: %+v", e)
	}
	if e.Match(Filter{}) {
		t.Error("an all-damaged entry must never match a filter")
	}
	if idx.DamagedCount() != 1 {
		t.Errorf("DamagedCount = %d, want 1", idx.DamagedCount())
	}
	// The listing skips it, exactly like the full scan.
	requireIndexMatchesScan(t, store)
}

func TestReadCellsFilteredStreamsVerbatimSubsequence(t *testing.T) {
	g := testGrid(3)
	dir := filepath.Join(t.TempDir(), "run")
	run, _, err := ExecuteRun(dir, g, 4, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(run.CellsPath())
	if err != nil {
		t.Fatal(err)
	}

	// Unfiltered: byte-identical to the stored file.
	var all []byte
	if err := run.ReadCellsFiltered(Filter{}, func(line []byte) error {
		all = append(all, line...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if string(all) != string(raw) {
		t.Error("unfiltered stream is not byte-identical to cells.jsonl")
	}

	// Filtered: exactly the matching lines, verbatim and in order.
	var got []byte
	if err := run.ReadCellsFiltered(Filter{Algo: "sampled", N: 64}, func(line []byte) error {
		got = append(got, line...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range splitLines(raw) {
		var rec runner.CellRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Algo == "sampled" && rec.N == 64 {
			n++
		}
	}
	if n == 0 {
		t.Fatal("test grid has no sampled/64 cells?")
	}
	if len(splitLines(got)) != n {
		t.Errorf("filtered stream has %d lines, want %d", len(splitLines(got)), n)
	}
}

// splitLines splits newline-terminated JSONL content into lines with
// their terminators.
func splitLines(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		i := 0
		for i < len(b) && b[i] != '\n' {
			i++
		}
		if i == len(b) {
			break // unterminated tail
		}
		out = append(out, b[:i+1])
		b = b[i+1:]
	}
	return out
}
