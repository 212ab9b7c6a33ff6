package corpus

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// The index layer: a per-store index.json holding, for every run ID,
// its generation list (name, provenance, completion) and its grid's
// axis ranges — everything a listing or filter query needs — so
// answering "which runs sweep algo A at density d" is O(result)
// instead of O(store): no manifest is opened, no cells file counted.
//
// The index is maintained incrementally: Archive and Import re-index
// the one run they appended to, Prune re-indexes the runs it removed
// generations from, and every write replaces index.json atomically
// (temp file + rename), so a reader never observes a torn index. It is
// also entirely reconstructible: RebuildIndex re-derives it from the
// store's directories alone, which both repairs a store mutated behind
// the index's back and defines the correctness claim — an index-backed
// answer must equal the full-scan answer (Store.Summaries).
//
// Because a grid is a cross product of its axes, a run contains a cell
// matching Filter f exactly when every filtered axis range contains
// f's value — so IndexEntry.Match over stored ranges is equivalent to
// Filter.MatchRun's scenario scan, and the equivalence is pinned by
// tests.

// IndexName is the index's file name at the store root.
const IndexName = "index.json"

// IndexVersion stamps the index schema; a loaded index with a
// different version is discarded and rebuilt.
const IndexVersion = "gossip-corpus-index/1"

// Index is the store-wide query index: one entry per run ID.
type Index struct {
	Version string                 `json:"version"`
	Entries map[string]*IndexEntry `json:"entries"`
}

// IndexEntry summarizes one run ID: its grid's axis ranges and its
// ordered generation list.
type IndexEntry struct {
	ID string `json:"id"`
	// Cells is the grid's expanded cell count; Seed and Reps its master
	// seed and repetition count.
	Cells int    `json:"cells"`
	Seed  uint64 `json:"seed"`
	Reps  int    `json:"reps"`
	// The canonical grid's axis ranges (densities effective: ≤ 0 → 1).
	Algos     []string  `json:"algos"`
	Models    []string  `json:"models"`
	Sizes     []int     `json:"sizes"`
	Densities []float64 `json:"densities"`
	// Generations lists every readable generation, oldest first.
	Generations []GenInfo `json:"generations"`
	// Damaged flags unreadable generation directories.
	Damaged []IndexDamage `json:"damaged,omitempty"`
}

// IndexDamage records one unreadable generation (or flat run) the
// indexer skipped.
type IndexDamage struct {
	Dir string `json:"dir"`
	Err string `json:"err"`
}

// IndexPath returns the store's index file path.
func (s *Store) IndexPath() string { return filepath.Join(s.Dir, IndexName) }

// buildIndexEntry derives one run ID's entry from its directories. A
// run that vanished returns (nil, nil) — the caller drops its entry.
func (s *Store) buildIndexEntry(id string) (*IndexEntry, error) {
	gens, damaged, err := s.Generations(id)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		// The run directory itself is unreadable (a manifest.json symlink
		// loop, say): flag it, as Store.Runs does, instead of failing the
		// whole rebuild.
		damaged = []Damaged{{Dir: s.Path(id), Err: err}}
	}
	e := &IndexEntry{ID: id, Generations: make([]GenInfo, 0, len(gens))}
	for _, d := range damaged {
		e.Damaged = append(e.Damaged, IndexDamage{Dir: d.Dir, Err: d.Err.Error()})
	}
	for _, r := range gens {
		gi, err := genInfo(r)
		if err != nil {
			return nil, err
		}
		e.Generations = append(e.Generations, gi)
	}
	if len(gens) == 0 {
		if len(e.Damaged) == 0 {
			return nil, nil // an empty husk: not a run
		}
		return e, nil // all-damaged: keep the flags visible
	}
	g := gens[len(gens)-1].Manifest.Grid.Canonical()
	e.Cells = gens[len(gens)-1].Manifest.Cells
	e.Seed = g.Seed
	e.Reps = g.Reps
	e.Algos = g.Algos
	e.Models = g.Models
	e.Sizes = g.Sizes
	e.Densities = effectiveDensities(g.Densities)
	return e, nil
}

// RebuildIndex re-derives the whole index from the store's directories
// and writes it atomically — the from-scratch path that both bootstraps
// a pre-index store and repairs one mutated behind the index's back.
func (s *Store) RebuildIndex() (*Index, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: list store: %w", err)
	}
	idx := &Index{Version: IndexVersion, Entries: map[string]*IndexEntry{}}
	for _, e := range entries {
		if !e.IsDir() || containsTmp(e.Name()) {
			continue
		}
		ent, err := s.buildIndexEntry(e.Name())
		if err != nil {
			return nil, err
		}
		if ent != nil {
			idx.Entries[ent.ID] = ent
		}
	}
	if err := s.writeIndex(idx); err != nil {
		return nil, err
	}
	return idx, nil
}

// LoadIndex reads the store's index. A missing index returns
// os.ErrNotExist (wrapped); a torn, unparseable, or version-mismatched
// one errors distinctly — callers repair either with RebuildIndex (or
// use EnsureIndex).
func (s *Store) LoadIndex() (*Index, error) {
	b, err := os.ReadFile(s.IndexPath())
	if err != nil {
		return nil, fmt.Errorf("corpus: load index: %w", err)
	}
	var idx Index
	if err := json.Unmarshal(b, &idx); err != nil {
		return nil, fmt.Errorf("corpus: parse index %s: %w", s.IndexPath(), err)
	}
	if idx.Version != IndexVersion {
		return nil, fmt.Errorf("corpus: index %s has version %q, want %q", s.IndexPath(), idx.Version, IndexVersion)
	}
	if idx.Entries == nil {
		idx.Entries = map[string]*IndexEntry{}
	}
	return &idx, nil
}

// EnsureIndex loads the index, rebuilding it when missing, stale in
// schema, or unreadable.
func (s *Store) EnsureIndex() (*Index, error) {
	idx, err := s.LoadIndex()
	if err != nil {
		return s.RebuildIndex()
	}
	return idx, nil
}

// writeIndex replaces index.json atomically: the new index is written
// to a ".tmp-" sibling (which every listing skips) and renamed into
// place, so concurrent readers see either the old index or the new one,
// never a torn file.
func (s *Store) writeIndex(idx *Index) error {
	b, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("corpus: marshal index: %w", err)
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(s.Dir, ".tmp-index-")
	if err != nil {
		return fmt.Errorf("corpus: write index: %w", err)
	}
	defer os.Remove(tmp.Name())
	f := durable(tmp)
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("corpus: write index: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("corpus: sync index: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("corpus: close index: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.IndexPath()); err != nil {
		return fmt.Errorf("corpus: commit index: %w", err)
	}
	return syncDir(s.Dir)
}

// reindexRuns incrementally refreshes the index entries for the given
// run IDs (deleting entries whose runs vanished) and rewrites the
// index. A store without an index yet gets a full rebuild, which
// covers the IDs too.
func (s *Store) reindexRuns(ids ...string) error {
	idx, err := s.LoadIndex()
	if err != nil {
		_, rerr := s.RebuildIndex()
		return rerr
	}
	for _, id := range ids {
		if id == "" {
			continue
		}
		ent, err := s.buildIndexEntry(id)
		if err != nil {
			return err
		}
		if ent == nil {
			delete(idx.Entries, id)
		} else {
			idx.Entries[id] = ent
		}
	}
	return s.writeIndex(idx)
}

// Match reports whether the entry's grid contains at least one cell
// matching f — equivalent to Filter.MatchRun over the run's expanded
// scenarios, because the grid is the cross product of the stored axis
// ranges.
func (e *IndexEntry) Match(f Filter) bool {
	if len(e.Generations) == 0 {
		return false
	}
	if f.Algo != "" && !slices.Contains(e.Algos, f.Algo) {
		return false
	}
	if f.Model != "" && !slices.Contains(e.Models, f.Model) {
		return false
	}
	if f.N != 0 && !slices.Contains(e.Sizes, f.N) {
		return false
	}
	if f.Density != 0 {
		hit := false
		for _, d := range e.Densities {
			if densityMatches(d, f.Density) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// Summary renders the entry as its run's listing line item — identical
// to the one Store.Summaries derives from a full scan.
func (e *IndexEntry) Summary() RunSummary {
	latest := e.Generations[len(e.Generations)-1]
	return RunSummary{
		ID:          e.ID,
		Gen:         latest.Name,
		Generations: len(e.Generations),
		CreatedAt:   latest.CreatedAt,
		Revision:    latest.Revision,
		Cells:       e.Cells,
		CellsDone:   latest.CellsDone,
		Complete:    latest.Complete,
		Seed:        e.Seed,
		Reps:        e.Reps,
		Algos:       e.Algos,
		Models:      e.Models,
		Sizes:       e.Sizes,
		Densities:   e.Densities,
	}
}

// Summaries answers the filtered run listing from the index alone:
// O(result), no directory touched. The listing is sorted by run ID and
// never nil — byte-identical to the full-scan Store.Summaries on a
// store the index is current for.
func (idx *Index) Summaries(f Filter) []RunSummary {
	ids := make([]string, 0, len(idx.Entries))
	for id, e := range idx.Entries {
		if e.Match(f) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([]RunSummary, 0, len(ids))
	for _, id := range ids {
		out = append(out, idx.Entries[id].Summary())
	}
	return out
}

// Gens counts the index's readable generations across all runs.
func (idx *Index) Gens() int {
	n := 0
	for _, e := range idx.Entries {
		n += len(e.Generations)
	}
	return n
}

// DamagedCount counts the index's recorded unreadable directories.
func (idx *Index) DamagedCount() int {
	n := 0
	for _, e := range idx.Entries {
		n += len(e.Damaged)
	}
	return n
}
