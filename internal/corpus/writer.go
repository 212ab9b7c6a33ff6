package corpus

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gossip/internal/runner"
)

// Writer streams a run to disk as its cells complete, in cell-index
// order, so the run directory is a valid checkpoint at every instant.
// Wire OnCell and Skip into a runner.Runner and Close when the run
// returns.
type Writer struct {
	run    *Run
	f      syncFile
	ord    *runner.OrderedJSONL
	prefix []runner.CellRecord
}

// newWriter assembles a Writer over an open cells file positioned
// after the done-cell prefix.
func newWriter(r *Run, f syncFile, prefix []runner.CellRecord) *Writer {
	return &Writer{run: r, f: f, prefix: prefix,
		ord: runner.NewOrderedJSONL(f, len(prefix))}
}

// CreateRun initializes dir as a fresh run for m: writes the manifest
// and an empty cells.jsonl. It refuses a directory that already holds
// a run (resume or pick a new directory — silently truncating recorded
// results is how corpora rot).
func CreateRun(dir string, m Manifest) (*Writer, error) {
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("corpus: %s already holds a run (resume it, or archive to a new directory)", dir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("corpus: probe run dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: create run: %w", err)
	}
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	f, err := createFile(filepath.Join(dir, CellsName))
	if err != nil {
		return nil, fmt.Errorf("corpus: create cells: %w", err)
	}
	// Persist the cells file's directory entry alongside the manifest's,
	// so a crash right after create leaves a well-formed empty run.
	if err := syncDir(dir); err != nil {
		f.Close() // error-path cleanup: creation already failed and the empty run dir is abandoned
		return nil, err
	}
	return newWriter(&Run{Dir: dir, Manifest: m}, f, nil), nil
}

// ResumeRun reopens dir's checkpoint to continue g. It verifies that
// the stored run records the same configuration (equal
// content-addressed grid IDs — same grid, same master seed), truncates
// any torn final line, and positions the writer after the completed
// prefix. The sweep then skips Done cells and appends the rest;
// because per-cell seeds derive from grid cell indices, the finished
// cells.jsonl is bit-identical to an uninterrupted run's.
func ResumeRun(dir string, g runner.Grid) (*Writer, error) {
	r, err := OpenRun(dir)
	if err != nil {
		return nil, err
	}
	want := NewManifest(g)
	if r.Manifest.ID != want.ID {
		return nil, fmt.Errorf("corpus: resume %s: stored run %s was recorded under a different grid/seed (this sweep is %s)", dir, r.Manifest.ID, want.ID)
	}
	recs, off, err := scanCells(r.CellsPath())
	if err != nil {
		return nil, err
	}
	if err := verifyScenarios(r.Dir, want.Grid.Scenarios(), recs); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(r.CellsPath(), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("corpus: reopen cells: %w", err)
	}
	if err := f.Truncate(off); err != nil {
		f.Close() // error-path cleanup: resume already failed loudly and nothing was written through f
		return nil, fmt.Errorf("corpus: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(off, 0); err != nil {
		f.Close() // error-path cleanup: resume already failed loudly and nothing was written through f
		return nil, fmt.Errorf("corpus: seek cells: %w", err)
	}
	return newWriter(r, durable(f), recs), nil
}

// recoverTornCreate reports whether dir holds the wreckage of a run
// creation that died before its manifest was durably written — a
// manifest file that exists but does not parse as JSON — and, when so,
// removes the run files so CreateRun can claim the directory afresh. A
// `sweep -out` killed early can die mid-CreateRun as well as
// mid-sweep, and `-resume` cannot tell the two apart, so the resume
// path must absorb both. A manifest that parses is never touched: a
// mismatched configuration keeps failing loudly through ResumeRun
// instead of being silently destroyed.
func recoverTornCreate(dir string) (cleared bool, err error) {
	b, rerr := os.ReadFile(filepath.Join(dir, ManifestName))
	if rerr != nil {
		if errors.Is(rerr, os.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("corpus: probe manifest %s: %w", dir, rerr)
	}
	var m Manifest
	if json.Unmarshal(b, &m) == nil {
		return false, nil
	}
	for _, name := range []string{ManifestName, CellsName} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return false, fmt.Errorf("corpus: clear torn run %s: %w", dir, err)
		}
	}
	return true, nil
}

// verifyScenarios checks that stored records name exactly the cells
// the grid expands to (all = the grid's expansion; record p is cell p).
// Matching indices alone would accept a checkpoint whose scenarios
// resolved differently under another build — say, an older
// failure-fraction rounding — and silently mix two computations in one
// "valid" run.
func verifyScenarios(dir string, all []runner.Scenario, recs []runner.CellRecord) error {
	for idx, rec := range recs {
		if idx >= len(all) {
			return fmt.Errorf("corpus: %s: cell index %d beyond the grid's %d cells", dir, idx, len(all))
		}
		if rec.Scenario != all[idx] {
			return fmt.Errorf("corpus: %s: cell %d was recorded as %v, but this grid expands it to %v — the stored run predates a change to grid expansion; archive it and start fresh", dir, idx, rec.Scenario, all[idx])
		}
	}
	return nil
}

// Done returns how many leading cells were already complete when the
// writer opened.
func (w *Writer) Done() int { return len(w.prefix) }

// Prefix returns the records that were already on disk when the writer
// opened (the resumed run's completed cells). Do not modify.
func (w *Writer) Prefix() []runner.CellRecord { return w.prefix }

// OnCell streams one completed cell; wire it as runner.Runner.OnCell.
func (w *Writer) OnCell(c runner.CellResult) { w.ord.Add(c) }

// Skip reports whether a cell is already on disk; wire it as
// runner.Runner.Skip.
func (w *Writer) Skip(s runner.Scenario) bool { return s.Index < len(w.prefix) }

// Close flushes, fsyncs and closes the checkpoint, reporting any
// streaming error the sweep's computation outran. The fsync is what
// upgrades "valid prefix at every instant" from kill-safety to
// power-loss-safety for a completed writer.
func (w *Writer) Close() error {
	err := w.ord.Err()
	if serr := w.f.Sync(); serr != nil && err == nil {
		err = fmt.Errorf("corpus: sync cells: %w", serr)
	}
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("corpus: close cells: %w", cerr)
	}
	return err
}

// ExecuteRun runs g to completion in dir with checkpointing: each cell
// streams to cells.jsonl as it finishes, in ascending cell-index order.
// With resume set and dir already holding this configuration's
// checkpoint (same grid ID), completed cells are skipped and only the
// missing suffix executes; without resume, dir must be fresh. It
// returns the run and its full record set (loaded cells for the
// skipped prefix, fresh results for the rest — i.e. the final file's
// contents).
//
// onRecord, if non-nil, observes the record sequence in strict
// cell order as it becomes available: a resumed run's loaded prefix is
// replayed immediately, then each fresh cell as it completes — a live
// tee of cells.jsonl for progress streaming.
func ExecuteRun(dir string, g runner.Grid, workers int, resume bool, onRecord func(runner.CellRecord)) (*Run, []runner.CellRecord, error) {
	var (
		w   *Writer
		err error
	)
	if resume {
		if _, serr := os.Stat(filepath.Join(dir, ManifestName)); serr == nil {
			cleared, cerr := recoverTornCreate(dir)
			if cerr != nil {
				return nil, nil, cerr
			}
			if !cleared {
				w, err = ResumeRun(dir, g)
			}
		} else if !errors.Is(serr, os.ErrNotExist) {
			// A probe failure (permission, a file where the directory
			// should be, …) is not "no checkpoint here": falling through
			// to CreateRun would mask the real problem behind its own
			// confusing failure.
			return nil, nil, fmt.Errorf("corpus: probe checkpoint %s: %w", dir, serr)
		}
	}
	if w == nil && err == nil {
		m := NewManifest(g)
		m.Workers = workers
		m.CreatedAt = time.Now().UTC().Format(time.RFC3339) //gossiplint:allow detlint CreatedAt is provenance, excluded from the run ID and every byte-compare gate
		m.Revision = BuildRevision()
		w, err = CreateRun(dir, m)
	}
	if err != nil {
		return nil, nil, err
	}
	onCell := w.OnCell
	if onRecord != nil {
		for _, rec := range w.Prefix() {
			onRecord(rec)
		}
		emit := func(rec runner.CellRecord) error {
			onRecord(rec)
			return nil
		}
		tee := runner.NewOrderedCells(w.Done(), emit)
		onCell = func(c runner.CellResult) {
			w.OnCell(c)
			tee.Add(c)
		}
	}
	r := &runner.Runner{Workers: workers, OnCell: onCell, Skip: w.Skip}
	r.RunGrid(g)
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	recs, err := w.run.Records()
	if err != nil {
		return nil, nil, err
	}
	if want := w.run.Manifest.Cells; len(recs) != want {
		return nil, nil, fmt.Errorf("corpus: run %s finished with %d of %d cells on disk", dir, len(recs), want)
	}
	return w.run, recs, nil
}
