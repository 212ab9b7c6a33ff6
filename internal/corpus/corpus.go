// Package corpus persists sweep runs so the JSONL stream the runner
// engine emits has a durable consumer: results survive the process,
// long sweeps checkpoint and resume, and stored runs answer the
// paper's core question — did this change make gossiping slower at
// density d? — by cross-run regression comparison.
//
// On disk, a run is a directory:
//
//	<run>/manifest.json   the grid declaration (with master seed),
//	                      expanded cell count, worker count, creation
//	                      time and schema version, plus the run ID
//	<run>/cells.jsonl     one runner.CellRecord JSON object per line,
//	                      in cell-index order
//
// Run IDs are content-addressed: the hex-truncated SHA-256 of the
// canonical grid JSON (runner.Grid.Canonical, which includes the master
// seed — everything that determines the sweep's results, and nothing
// that does not). Identical configurations therefore map to identical
// IDs, and a stored run's provenance can be verified by re-deriving its
// ID from its own manifest.
//
// A Store is generational: one run ID holds an ordered set of
// generations — <store>/<id>/<gen>/ — each a full run directory, with
// the generation name derived from the manifest's creation timestamp
// and code revision. Re-archiving an identical configuration from
// newer code appends a new generation instead of silently returning
// the stale one, so metric drift across revisions stays visible;
// only a re-run that is bit-identical at the same revision dedupes,
// and even then the decision and both generations' provenance are
// reported (Appended). Selectors resolve generations: "id" is the
// latest, "id@prev" the one before it, "id@0" the oldest, and
// "id@<name>" pins one by (a unique fragment of) its generation name.
// Pre-generational stores — manifest.json directly under <store>/<id>
// — are not read: each such run is reported as Damaged, for
// `prune -damaged` to clear and `archive -add` to re-archive.
//
// cells.jsonl is written through runner.OrderedJSONL, so at every
// instant — including after a kill — the file is an in-order prefix of
// the full sweep, possibly ending in one torn line. Resume truncates
// the torn tail, verifies the grid hash, skips the completed prefix,
// and appends exactly the missing suffix; because per-cell seeds derive
// from cell indices, the completed file is bit-identical to an
// uninterrupted run's.
package corpus

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"gossip/internal/runner"
)

// On-disk names of the two files every run directory holds.
const (
	ManifestName = "manifest.json"
	CellsName    = "cells.jsonl"
)

// SchemaVersion stamps manifests with the writing schema's version.
const SchemaVersion = "gossip-corpus/1"

// Manifest describes one stored sweep run.
type Manifest struct {
	// ID is the content-addressed run ID: GridID of Grid. It is stored
	// for human consumption and verified against the grid on open.
	ID string `json:"id"`
	// Grid is the canonical grid declaration, master seed included.
	Grid runner.Grid `json:"grid"`
	// Cells is the grid's expanded cell count: the line count of a
	// complete cells.jsonl.
	Cells int `json:"cells"`
	// Workers, CreatedAt, Revision and Version are provenance; they do
	// not affect results and are excluded from the ID. Revision is the
	// code revision (git commit) that produced the results; together
	// with CreatedAt it names the run's generation in a Store.
	Workers   int    `json:"workers,omitempty"`
	CreatedAt string `json:"created_at,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Version   string `json:"version,omitempty"`
}

// BuildRevision reports the code revision baked into the running
// binary (the vcs.revision build setting, truncated to 12 hex digits),
// or "" when the build carries none (e.g. test binaries). It is the
// default Revision provenance for runs and archived generations.
func BuildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return ""
}

// GridID content-addresses a grid: hex(SHA-256(canonical JSON))[:16].
func GridID(g runner.Grid) string {
	b, err := json.Marshal(g.Canonical())
	if err != nil {
		// A Grid is plain data; its marshaling cannot fail.
		panic(fmt.Errorf("corpus: marshal grid: %w", err))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// NewManifest stamps a manifest for g: canonical grid, derived ID,
// expanded cell count, current schema version.
func NewManifest(g runner.Grid) Manifest {
	cg := g.Canonical()
	return Manifest{
		ID:      GridID(cg),
		Grid:    cg,
		Cells:   len(cg.Scenarios()),
		Version: SchemaVersion,
	}
}

// Run is an opened run directory.
type Run struct {
	Dir      string
	Manifest Manifest
	// Gen is the run's generation name within its Store, empty for a run
	// opened outside one.
	Gen string
}

// Label names the run for display: "id" for a standalone run,
// "id@gen" for a stored generation.
func (r *Run) Label() string {
	if r.Gen == "" {
		return r.Manifest.ID
	}
	return r.Manifest.ID + "@" + r.Gen
}

// OpenRun reads dir's manifest. It verifies the stored ID against the
// grid, so a tampered or mislabeled run is rejected at open.
func OpenRun(dir string) (*Run, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("corpus: open run %s: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("corpus: parse manifest %s: %w", dir, err)
	}
	if want := GridID(m.Grid); m.ID != want {
		return nil, fmt.Errorf("corpus: run %s: manifest ID %s does not match its grid (want %s)", dir, m.ID, want)
	}
	return &Run{Dir: dir, Manifest: m}, nil
}

// CellsPath returns the run's cells.jsonl path.
func (r *Run) CellsPath() string { return filepath.Join(r.Dir, CellsName) }

// Records loads the run's cells: the valid in-order prefix of
// cells.jsonl. For a complete run that is every cell of the grid; for
// a checkpointed one it is the cells finished so far (a torn final line from a killed writer
// is ignored). Use Complete to distinguish.
func (r *Run) Records() ([]runner.CellRecord, error) {
	recs, _, err := scanCells(r.CellsPath())
	return recs, err
}

// Complete reports whether every cell of the grid is present.
func (r *Run) Complete() (bool, error) {
	recs, err := r.Records()
	if err != nil {
		return false, err
	}
	return len(recs) == r.Manifest.Cells, nil
}

// scanCells reads the valid in-order prefix of a cells file: complete
// lines that parse as CellRecords whose indices run 0, 1, 2, …. It
// returns the records and the byte offset just past the last valid
// line — the truncation point for resume. A missing file is an empty
// prefix. An unterminated or unparseable final line is a torn write
// and ends the prefix silently; a bad line with data after it, or a
// line whose index breaks the sequence, is corruption and errors.
func scanCells(path string) ([]runner.CellRecord, int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("corpus: open cells: %w", err)
	}
	defer f.Close()
	var (
		recs []runner.CellRecord
		off  int64
		rd   = bufio.NewReader(f)
	)
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			// Unterminated tail: a torn write. Not part of the prefix.
			return recs, off, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("corpus: read cells %s: %w", path, err)
		}
		var rec runner.CellRecord
		if jerr := json.Unmarshal(line, &rec); jerr != nil {
			// A terminated line that fails to parse: if it is the last
			// line it is a torn write (kill mid-syscall) and ends the
			// prefix; with data after it the file is corrupt.
			if _, perr := rd.Peek(1); perr == io.EOF {
				return recs, off, nil
			}
			return nil, 0, fmt.Errorf("corpus: cells %s line %d: %w", path, len(recs)+1, jerr)
		}
		if expect := len(recs); rec.Index != expect {
			// Torn writes cannot produce a parseable line with the
			// wrong index — this is corruption wherever it appears.
			return nil, 0, fmt.Errorf("corpus: cells %s line %d: cell index %d, want %d", path, len(recs)+1, rec.Index, expect)
		}
		recs = append(recs, rec)
		off += int64(len(line))
	}
}

// CellsDone cheaply counts the completed cells of a run directory: the
// newline-terminated lines of its cells.jsonl, counted as raw bytes
// with no JSON parsing — the probe the corpus listing and index make
// per run, where a full scanCells pass would re-parse every file.
// Ordered streaming writes one cell per terminated line, and a torn
// trailing write is unterminated, so the count equals the
// completed-cell prefix length except in the corruption cases
// scanCells exists to reject. A missing file is zero cells, not an
// error.
func CellsDone(dir string) (int, error) {
	f, err := os.Open(filepath.Join(dir, CellsName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("corpus: probe cells: %w", err)
	}
	defer f.Close()
	var (
		buf  = make([]byte, 64*1024)
		done int
	)
	for {
		n, err := f.Read(buf)
		done += bytes.Count(buf[:n], []byte{'\n'})
		if err == io.EOF {
			return done, nil
		}
		if err != nil {
			return 0, fmt.Errorf("corpus: probe cells %s: %w", dir, err)
		}
	}
}

// Store is a directory of runs keyed by their content-addressed IDs,
// each run an ordered set of generations.
type Store struct {
	Dir string
}

// Open opens (creating if needed) a corpus directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: open store: %w", err)
	}
	return &Store{Dir: dir}, nil
}

// Path returns where the identified run's generations live in the
// store.
func (s *Store) Path(id string) string { return filepath.Join(s.Dir, id) }

// ErrBadID marks a run ID GridID cannot have produced.
var ErrBadID = errors.New("not a run ID (16 lowercase hex digits)")

// validID reports whether id has GridID's form: 16 lowercase hex digits.
func validID(id string) bool {
	_, err := hex.DecodeString(id)
	return len(id) == 16 && err == nil && strings.ToLower(id) == id
}

// Damaged reports one store entry that could not be opened: a torn
// manifest, a tampered grid, a corrupt cell file. Listing skips over
// damaged entries instead of failing the whole store — and keeps them
// visible, because Prune needs to see them to delete them.
type Damaged struct {
	Dir string
	Err error
}

// Resolve resolves a run selector — "id", "id@latest", "id@prev", an
// ordinal "id@0" (oldest first), or "id@<name>" pinning a generation
// by its name or a unique fragment of it — and opens that generation.
// A bare ID resolves to the latest generation.
func (s *Store) Resolve(sel string) (*Run, error) {
	id, gen := SplitSelector(sel)
	gens, damaged, err := s.Generations(id)
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		if len(damaged) > 0 {
			return nil, fmt.Errorf("corpus: run %s: no readable generations (%d damaged, first: %v)", id, len(damaged), damaged[0].Err)
		}
		return nil, fmt.Errorf("corpus: run %s: no generations stored", id)
	}
	return pickGen(id, gens, gen)
}

// SplitSelector splits "id[@gen]" at the last '@'.
func SplitSelector(sel string) (id, gen string) {
	if i := strings.LastIndex(sel, "@"); i >= 0 {
		return sel[:i], sel[i+1:]
	}
	return sel, ""
}

// pickGen resolves a generation selector against an ordered (oldest
// first) generation list.
func pickGen(id string, gens []*Run, sel string) (*Run, error) {
	names := make([]string, len(gens))
	for i, g := range gens {
		names[i] = g.Gen
	}
	i, err := pickGenName(id, names, sel)
	if err != nil {
		return nil, err
	}
	return gens[i], nil
}

// pickGenName resolves "", "latest", "prev", an ordinal, or a unique
// name fragment against an ordered (oldest first) name list.
func pickGenName(id string, names []string, sel string) (int, error) {
	switch sel {
	case "", "latest":
		return len(names) - 1, nil
	case "prev":
		if len(names) < 2 {
			return 0, fmt.Errorf("corpus: run %s has only %d generation(s) — no previous to compare against", id, len(names))
		}
		return len(names) - 2, nil
	}
	// An in-range integer is an ordinal; an out-of-range one falls
	// through to name-fragment matching — an all-digit revision or a
	// timestamp fragment must stay usable as a selector.
	if n, err := strconv.Atoi(sel); err == nil && n >= 0 && n < len(names) {
		return n, nil
	}
	hit := -1
	for i, g := range names {
		if g == sel {
			return i, nil
		}
		if strings.Contains(g, sel) {
			if hit >= 0 {
				return 0, fmt.Errorf("corpus: run %s: generation selector %q is ambiguous (%s, %s, …)", id, sel, names[hit], g)
			}
			hit = i
		}
	}
	if hit >= 0 {
		return hit, nil
	}
	return 0, fmt.Errorf("corpus: run %s has no generation %q (have %s)", id, sel, strings.Join(names, ", "))
}

// Generations opens every readable generation of the identified run,
// oldest first, along with the generation directories that failed to
// open. A directory still in the pre-generational flat layout —
// manifest.json directly under the ID — is not read: the whole entry is
// reported as damaged, so listings flag it and Prune can clear it. A run
// ID with no directory at all errors (os.ErrNotExist); one validID
// rejects errors (ErrBadID) before it becomes a path, so every read and
// write of a run stays inside the store.
func (s *Store) Generations(id string) ([]*Run, []Damaged, error) {
	if !validID(id) {
		return nil, nil, fmt.Errorf("corpus: run %q: %w", id, ErrBadID)
	}
	dir := s.Path(id)
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, []Damaged{{Dir: dir, Err: errors.New("pre-generational flat run; clear it with `prune -damaged` and re-archive the run with `archive -add`")}}, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("corpus: probe run %s: %w", id, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: list run %s: %w", id, err)
	}
	var (
		gens    []*Run
		damaged []Damaged
	)
	for _, e := range entries {
		if !e.IsDir() || strings.Contains(e.Name(), ".tmp-") {
			// Not a generation, or an uncommitted WriteRun staging
			// directory left by a crash.
			continue
		}
		gd := filepath.Join(dir, e.Name())
		if _, err := os.Stat(filepath.Join(gd, ManifestName)); errors.Is(err, os.ErrNotExist) {
			continue
		}
		r, err := OpenRun(gd)
		if err != nil {
			damaged = append(damaged, Damaged{Dir: gd, Err: err})
			continue
		}
		r.Gen = e.Name()
		gens = append(gens, r)
	}
	sort.Slice(gens, func(i, j int) bool {
		if gens[i].Manifest.CreatedAt != gens[j].Manifest.CreatedAt {
			return gens[i].Manifest.CreatedAt < gens[j].Manifest.CreatedAt
		}
		return gens[i].Gen < gens[j].Gen
	})
	return gens, damaged, nil
}

// Runs opens the latest readable generation of every run in the store,
// sorted by ID. Entries not named by a run ID or without any manifest
// are skipped (the store owns only what it can identify); entries that
// hold a manifest but fail to open are skipped too and reported as
// damaged, so one torn run no longer bricks listing, selection, or
// pruning of the rest.
func (s *Store) Runs() ([]*Run, []Damaged, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: list store: %w", err)
	}
	var (
		runs    []*Run
		damaged []Damaged
	)
	for _, e := range entries {
		if !e.IsDir() || !validID(e.Name()) {
			continue
		}
		gens, bad, gerr := s.Generations(e.Name())
		if gerr != nil {
			damaged = append(damaged, Damaged{Dir: filepath.Join(s.Dir, e.Name()), Err: gerr})
			continue
		}
		damaged = append(damaged, bad...)
		if len(gens) > 0 {
			runs = append(runs, gens[len(gens)-1])
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Manifest.ID < runs[j].Manifest.ID })
	return runs, damaged, nil
}

// Provenance labels an archived generation: who computed the results,
// when, and from which code revision.
type Provenance struct {
	Workers   int
	CreatedAt string
	Revision  string
}

// Appended reports what Archive or Import did with incoming results.
// Both generations' provenance is always available — Run.Manifest for
// where the results live now, Prev.Manifest for the generation that
// preceded them — so a dedupe decision is never silent.
type Appended struct {
	// Run is the generation holding the results after the operation:
	// the freshly written one, or (when deduped) the existing latest.
	Run *Run
	// Added reports whether a new generation directory was written.
	Added bool
	// Prev is the latest generation before the operation ran; nil for
	// the first generation of a run ID. When Added is false the
	// incoming cells were bit-identical to Prev at the same revision
	// and were deduped: Run == Prev.
	Prev *Run
	// Incoming is the manifest the operation stored — or, when
	// deduped, would have stored: the incoming results' provenance.
	Incoming Manifest
}

// Archive stores results as a new generation of their grid's
// content-addressed run ID. A re-archive whose cells are bit-identical
// to the current latest generation *at the same code revision* dedupes
// — same code, same deterministic results, nothing new to record — but
// the decision and both generations' provenance are reported. Any
// other re-archive (new revision, or drifted results) appends a new
// generation, so metric drift across revisions is never silently
// discarded.
func (s *Store) Archive(g runner.Grid, prov Provenance, results []runner.CellResult) (*Appended, error) {
	m := NewManifest(g)
	m.Workers = prov.Workers
	m.CreatedAt = prov.CreatedAt
	m.Revision = prov.Revision
	return s.appendGen(m, runner.Records(results))
}

// Import copies an existing run directory into the store as a new
// generation of its run ID, deduping like Archive. rev, when non-empty,
// overrides the revision recorded in the stored generation's manifest
// (the source manifest's own revision is kept otherwise).
func (s *Store) Import(src *Run, rev string) (*Appended, error) {
	recs, err := src.Records()
	if err != nil {
		return nil, err
	}
	m := src.Manifest
	if rev != "" {
		m.Revision = rev
	}
	return s.appendGen(m, recs)
}

// appendGen is the shared Archive/Import core: dedupe against the
// latest generation and write the new one.
func (s *Store) appendGen(m Manifest, recs []runner.CellRecord) (*Appended, error) {
	if m.CreatedAt == "" {
		// A generation needs a creation instant for its name and for
		// age-based pruning; a manifest without one is stamped at
		// append.
		m.CreatedAt = time.Now().UTC().Format(time.RFC3339) //gossiplint:allow detlint CreatedAt is provenance, excluded from the run ID and every byte-compare gate
	}
	var buf bytes.Buffer
	if err := runner.WriteRecordJSONL(&buf, recs); err != nil {
		return nil, err
	}
	gens, _, err := s.Generations(m.ID)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var prev *Run
	if len(gens) > 0 {
		prev = gens[len(gens)-1]
	}
	if prev != nil && prev.Manifest.Revision == m.Revision && fileEquals(prev.CellsPath(), buf.Bytes()) {
		return &Appended{Run: prev, Prev: prev, Incoming: m}, nil
	}
	name, err := s.freshGenName(m)
	if err != nil {
		return nil, err
	}
	r, err := WriteRun(filepath.Join(s.Path(m.ID), name), m, recs)
	if err != nil {
		return nil, err
	}
	r.Gen = name
	// Keep the query index current: re-derive this one run's entry (a
	// store without an index yet gets its first full build here). The
	// generation itself is already durably committed; an index failure
	// is a real error (disk full, permissions) and RebuildIndex repairs.
	if err := s.reindexRuns(m.ID); err != nil {
		return nil, err
	}
	return &Appended{Run: r, Added: true, Prev: prev, Incoming: m}, nil
}

// fileEquals reports whether path's contents equal want, without
// buffering the file: the size check rejects almost every drifted run
// for the cost of a stat, and a matching size streams chunkwise — the
// dedupe probe must not triple a multi-gigabyte run's memory
// footprint.
func fileEquals(path string, want []byte) bool {
	fi, err := os.Stat(path)
	if err != nil || fi.Size() != int64(len(want)) {
		return false
	}
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	buf := make([]byte, 64*1024)
	for len(want) > 0 {
		n, err := f.Read(buf)
		if n > len(want) || !bytes.Equal(buf[:n], want[:n]) {
			return false
		}
		want = want[n:]
		if err == io.EOF {
			return len(want) == 0
		}
		if err != nil {
			return false
		}
	}
	return true
}

// GenName derives a manifest's generation directory name from its
// provenance: <compact creation timestamp>-<revision>. Timestamps
// order lexicographically, so names sort chronologically.
func GenName(m Manifest) string {
	ts := "0"
	if t, err := time.Parse(time.RFC3339, m.CreatedAt); err == nil {
		ts = t.UTC().Format("20060102T150405Z")
	}
	rev := sanitizeRev(m.Revision)
	if rev == "" {
		rev = "unversioned"
	}
	return ts + "-" + rev
}

// sanitizeRev keeps a revision filesystem-safe and short enough for a
// directory name.
func sanitizeRev(rev string) string {
	var b strings.Builder
	for _, r := range rev {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			b.WriteRune(r)
		}
		if b.Len() >= 24 {
			break
		}
	}
	return b.String()
}

// freshGenName returns m's generation name, suffixed past any existing
// generation directory (two archives in the same second at the same
// revision with drifted cells must not overwrite each other).
func (s *Store) freshGenName(m Manifest) (string, error) {
	base := GenName(m)
	name := base
	for i := 2; ; i++ {
		_, err := os.Stat(filepath.Join(s.Path(m.ID), name))
		if errors.Is(err, os.ErrNotExist) {
			return name, nil
		}
		if err != nil {
			return "", fmt.Errorf("corpus: probe generation %s/%s: %w", m.ID, name, err)
		}
		name = fmt.Sprintf("%s-%d", base, i)
	}
}

// WriteRun writes a complete run directory in one shot, atomically:
// the manifest and cells land in a temporary sibling that is renamed
// into place only once fully written, replacing any previous content,
// so an interrupted or failed write never leaves dir holding a valid
// manifest over truncated cells. (Checkpointed runs are the opposite
// case — intentionally partial — and go through CreateRun/ResumeRun.)
func WriteRun(dir string, m Manifest, records []runner.CellRecord) (*Run, error) {
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: create run parent: %w", err)
	}
	tmp, err := os.MkdirTemp(parent, filepath.Base(dir)+".tmp-")
	if err != nil {
		return nil, fmt.Errorf("corpus: create run: %w", err)
	}
	defer os.RemoveAll(tmp)
	if err := writeManifest(tmp, m); err != nil {
		return nil, err
	}
	f, err := createFile(filepath.Join(tmp, CellsName))
	if err != nil {
		return nil, fmt.Errorf("corpus: create cells: %w", err)
	}
	if err := runner.WriteRecordJSONL(f, records); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("corpus: sync cells: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("corpus: close cells: %w", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("corpus: replace run: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, fmt.Errorf("corpus: commit run: %w", err)
	}
	// Make the rename itself durable: a power loss after WriteRun
	// returns must not resurrect the old directory entry.
	if err := syncDir(parent); err != nil {
		return nil, err
	}
	return &Run{Dir: dir, Manifest: m}, nil
}

// writeManifest durably writes dir's manifest: the file is fsynced,
// and so is dir, so after it returns neither the manifest's bytes nor
// its directory entry can be lost to a power cut — the anchor of the
// checkpoint format's "valid prefix at every instant" claim.
func writeManifest(dir string, m Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("corpus: marshal manifest: %w", err)
	}
	b = append(b, '\n')
	f, err := createFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return fmt.Errorf("corpus: write manifest: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("corpus: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("corpus: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("corpus: close manifest: %w", err)
	}
	return syncDir(dir)
}

// A syncFile is what the corpus needs of a file it writes and then
// fsyncs: its writes, its fsync and its close.
type syncFile interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

// durable hands out every file the corpus fsyncs: manifests, cells files
// and the index. It returns f itself; it is a variable so a test can make
// a file's Sync or Close fail.
var durable = func(f *os.File) syncFile { return f }

// createFile creates or truncates name for writing, through durable.
func createFile(name string) (syncFile, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return durable(f), nil
}

// syncDir fsyncs a directory so freshly created entries survive power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("corpus: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("corpus: sync dir %s: %w", dir, err)
	}
	return nil
}

// Filter selects runs and cells by grid coordinates. Zero-valued fields
// match anything; Density matches against the scenario's effective
// density (0 in a scenario means the paper's operating point 1).
type Filter struct {
	Algo    string
	Model   string
	N       int
	Density float64
}

// MatchScenario reports whether one cell matches.
func (f Filter) MatchScenario(s runner.Scenario) bool {
	if f.Algo != "" && s.Algo != f.Algo {
		return false
	}
	if f.Model != "" && s.Model != f.Model {
		return false
	}
	if f.N != 0 && s.N != f.N {
		return false
	}
	if f.Density != 0 && !densityMatches(effectiveDensity(s), f.Density) {
		return false
	}
	return true
}

// densityMatches compares a CLI-parsed density against a scenario's
// effective density with a small relative epsilon: effective densities
// are computed (scaled, divided, summed), so demanding bitwise
// equality against a decimal literal like 0.3 silently filters out the
// very cells the user named.
func densityMatches(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// MatchRun reports whether any of the run's grid cells matches.
func (f Filter) MatchRun(m Manifest) bool {
	for _, s := range m.Grid.Scenarios() {
		if f.MatchScenario(s) {
			return true
		}
	}
	return false
}

// FilterRecords returns the records whose scenarios match f, in order.
func FilterRecords(recs []runner.CellRecord, f Filter) []runner.CellRecord {
	var out []runner.CellRecord
	for _, r := range recs {
		if f.MatchScenario(r.Scenario) {
			out = append(out, r)
		}
	}
	return out
}

// Key is a cell's grid coordinate — everything in a Scenario except its
// grid position and repetition count. It is the join key for cross-run
// comparison: two runs' cells with equal Keys measured the same
// configuration.
type Key struct {
	Algo     string  `json:"algo"`
	Model    string  `json:"model"`
	N        int     `json:"n"`
	Density  float64 `json:"density"`
	Failures int     `json:"failures"`
	Trees    int     `json:"trees,omitempty"`
	MemSlots int     `json:"memslots,omitempty"`
	WalkProb float64 `json:"walkprob,omitempty"`
	SampleK  int     `json:"k,omitempty"`
}

// KeyOf returns s's coordinate, with defaults applied so cells naming
// the same computation join: density 0 joins density 1, and a sampled
// cell without an explicit k joins one declared at DefaultSampleK.
func KeyOf(s runner.Scenario) Key {
	s = s.Canonical()
	return Key{
		Algo: s.Algo, Model: s.Model, N: s.N,
		Density:  s.Density,
		Failures: s.Failures,
		Trees:    s.Trees, MemSlots: s.MemSlots,
		WalkProb: s.WalkProb, SampleK: s.SampleK,
	}
}

func effectiveDensity(s runner.Scenario) float64 {
	if s.Density <= 0 {
		return 1
	}
	return s.Density
}

// String renders the coordinate like Scenario.String.
func (k Key) String() string {
	s := runner.Scenario{
		Algo: k.Algo, Model: k.Model, N: k.N, Density: k.Density,
		Failures: k.Failures, Trees: k.Trees, MemSlots: k.MemSlots,
		WalkProb: k.WalkProb, SampleK: k.SampleK,
	}
	return s.String()
}

// Join pairs two record sets on their grid coordinates, in a's order.
// Records without a partner are returned separately, in their own
// run's order.
func Join(a, b []runner.CellRecord) (pairs [][2]runner.CellRecord, onlyA, onlyB []runner.CellRecord) {
	byKey := make(map[Key]int, len(b))
	for i, r := range b {
		byKey[KeyOf(r.Scenario)] = i
	}
	matchedB := make([]bool, len(b))
	for _, r := range a {
		if i, ok := byKey[KeyOf(r.Scenario)]; ok {
			pairs = append(pairs, [2]runner.CellRecord{r, b[i]})
			matchedB[i] = true
		} else {
			onlyA = append(onlyA, r)
		}
	}
	for i, r := range b {
		if !matchedB[i] {
			onlyB = append(onlyB, r)
		}
	}
	return pairs, onlyA, onlyB
}
