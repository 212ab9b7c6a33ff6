package corpus

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"gossip/internal/runner"
)

// This file defines the corpus's JSON view types: the serialized shapes
// shared verbatim by the CLI's -json flags and the corpusd HTTP
// endpoints, so the command-line and HTTP answers to one question are
// byte-identical and can never drift apart. Every constructor here is
// deterministic — stable field order, sorted runs, non-nil slices — so
// equal stores produce equal bytes.

// GenInfo summarizes one stored generation for listings: its name,
// provenance, and completion state (cells done counted cheaply, no JSON
// parse).
type GenInfo struct {
	Name      string `json:"name"`
	CreatedAt string `json:"created_at,omitempty"`
	Revision  string `json:"revision,omitempty"`
	CellsDone int    `json:"cells_done"`
	Complete  bool   `json:"complete"`
}

// RunSummary is one run's line item in a store listing (`gossipsim
// archive -json`, corpusd `GET /runs`): the latest generation's
// provenance and completion state plus the grid's axis ranges — enough
// to answer filter queries without opening the run.
type RunSummary struct {
	ID          string `json:"id"`
	Gen         string `json:"gen"`
	Generations int    `json:"generations"`
	CreatedAt   string `json:"created_at,omitempty"`
	Revision    string `json:"revision,omitempty"`
	// Cells is the grid's expanded cell count; CellsDone the completed
	// line count of the latest generation's cells.jsonl.
	Cells     int    `json:"cells"`
	CellsDone int    `json:"cells_done"`
	Complete  bool   `json:"complete"`
	Seed      uint64 `json:"seed"`
	Reps      int    `json:"reps"`
	// The grid's axis ranges, canonical and effective (a density ≤ 0
	// means the paper's operating point 1). Because a grid is a cross
	// product, membership in every filtered axis is equivalent to the
	// existence of a matching cell — the property the index layer's
	// O(result) filtering relies on.
	Algos     []string  `json:"algos"`
	Models    []string  `json:"models"`
	Sizes     []int     `json:"sizes"`
	Densities []float64 `json:"densities"`
}

// genInfo summarizes one opened generation.
func genInfo(r *Run) (GenInfo, error) {
	done, err := CellsDone(r.Dir)
	if err != nil {
		return GenInfo{}, err
	}
	return GenInfo{
		Name:      r.Gen,
		CreatedAt: r.Manifest.CreatedAt,
		Revision:  r.Manifest.Revision,
		CellsDone: done,
		Complete:  done == r.Manifest.Cells,
	}, nil
}

// effectiveDensities maps grid densities to their effective values
// (≤ 0 means 1), preserving order.
func effectiveDensities(ds []float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		if d <= 0 {
			d = 1
		}
		out[i] = d
	}
	return out
}

// summarize builds the listing entry for a run's ordered generations
// (oldest first, at least one).
func summarize(gens []*Run) (RunSummary, error) {
	latest := gens[len(gens)-1]
	gi, err := genInfo(latest)
	if err != nil {
		return RunSummary{}, err
	}
	m := latest.Manifest
	g := m.Grid.Canonical()
	return RunSummary{
		ID:          m.ID,
		Gen:         latest.Gen,
		Generations: len(gens),
		CreatedAt:   m.CreatedAt,
		Revision:    m.Revision,
		Cells:       m.Cells,
		CellsDone:   gi.CellsDone,
		Complete:    gi.Complete,
		Seed:        g.Seed,
		Reps:        g.Reps,
		Algos:       g.Algos,
		Models:      g.Models,
		Sizes:       g.Sizes,
		Densities:   effectiveDensities(g.Densities),
	}, nil
}

// Summaries scans the whole store and builds the filtered run listing —
// the full-scan reference the index layer's answers are tested against.
// Damaged entries are skipped from the listing and reported separately;
// their manifests are never touched. The listing is sorted by run ID
// and never nil.
func (s *Store) Summaries(f Filter) ([]RunSummary, []Damaged, error) {
	runs, damaged, err := s.Runs()
	if err != nil {
		return nil, nil, err
	}
	out := make([]RunSummary, 0, len(runs))
	for _, r := range runs {
		if !f.MatchRun(r.Manifest) {
			continue
		}
		gens, _, err := s.Generations(r.Manifest.ID)
		if err != nil {
			return nil, nil, err
		}
		sum, err := summarize(gens)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, sum)
	}
	return out, damaged, nil
}

// RunDetail is one stored generation in full (`GET /runs/{id[@gen]}`):
// the resolved generation's summary and manifest, plus every sibling
// generation's provenance, oldest first.
type RunDetail struct {
	// Summary describes the resolved generation (not necessarily the
	// latest): Gen, CreatedAt, Revision, CellsDone and Complete are its.
	Summary  RunSummary `json:"summary"`
	Manifest Manifest   `json:"manifest"`
	// Generations lists every readable generation, oldest first.
	Generations []GenInfo `json:"generations"`
	// Damaged lists unreadable generation directories, when any.
	Damaged []string `json:"damaged,omitempty"`
}

// Detail resolves a run selector ("id", "id@gen" — see Resolve) and
// builds its detail view.
func (s *Store) Detail(sel string) (*RunDetail, error) {
	id, gensel := SplitSelector(sel)
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
	r, err := pickGen(id, gens, gensel)
	if err != nil {
		return nil, err
	}
	sum, err := summarize(gens)
	if err != nil {
		return nil, err
	}
	gi, err := genInfo(r)
	if err != nil {
		return nil, err
	}
	// Re-anchor the summary on the resolved generation.
	sum.Gen, sum.CreatedAt, sum.Revision = r.Gen, r.Manifest.CreatedAt, r.Manifest.Revision
	sum.CellsDone, sum.Complete = gi.CellsDone, gi.Complete
	d := &RunDetail{Summary: sum, Manifest: r.Manifest, Generations: make([]GenInfo, 0, len(gens))}
	for _, g := range gens {
		ggi, err := genInfo(g)
		if err != nil {
			return nil, err
		}
		d.Generations = append(d.Generations, ggi)
	}
	for _, bad := range damaged {
		d.Damaged = append(d.Damaged, bad.Dir)
	}
	return d, nil
}

// ReportView is a stored run's full content (`gossipsim report -json`,
// corpusd `GET /runs/{id[@gen]}/report`): label, manifest, and every
// stored cell record.
type ReportView struct {
	Label    string              `json:"label"`
	Manifest Manifest            `json:"manifest"`
	Records  []runner.CellRecord `json:"records"`
}

// NewReportView loads a run's records into its report view.
func NewReportView(r *Run) (*ReportView, error) {
	recs, err := r.Records()
	if err != nil {
		return nil, err
	}
	if recs == nil {
		recs = []runner.CellRecord{}
	}
	return &ReportView{Label: r.Label(), Manifest: r.Manifest, Records: recs}, nil
}

// CompareResult wraps a comparison with its gate verdict for
// serialization (`gossipsim compare -json`, corpusd `GET /compare`).
type CompareResult struct {
	Regressed  bool        `json:"regressed"`
	Summary    string      `json:"summary"`
	Comparison *Comparison `json:"comparison"`
}

// NewCompareResult builds the serialized verdict of a comparison.
func NewCompareResult(c *Comparison) *CompareResult {
	return &CompareResult{Regressed: c.Regressed(), Summary: c.Summary(), Comparison: c}
}

// WriteJSON encodes v compactly with a trailing newline — the one
// encoder both the CLI -json flags and the corpusd endpoints use, so
// their bytes for equal values are equal.
func WriteJSON(w interface{ Write([]byte) (int, error) }, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// finitePtr boxes a float for JSON, mapping non-finite values (which
// encoding/json rejects) to null.
func finitePtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// ReadCellsFiltered streams the matching lines of a run's cells.jsonl
// to emit, verbatim: each complete line is parsed only to test it
// against the filter, and the original bytes are forwarded, so a
// filtered stream is a byte-exact subsequence of the stored file (and
// an unfiltered one equals it). An unterminated final line is a torn
// write and is silently dropped, matching scanCells; a missing file is
// an empty stream.
func (r *Run) ReadCellsFiltered(f Filter, emit func(line []byte) error) error {
	file, err := os.Open(r.CellsPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("corpus: open cells: %w", err)
	}
	defer file.Close()
	rd := bufio.NewReader(file)
	for line := 1; ; line++ {
		b, err := rd.ReadBytes('\n')
		if err == io.EOF {
			return nil // unterminated tail: a torn write
		}
		if err != nil {
			return fmt.Errorf("corpus: read cells %s: %w", r.CellsPath(), err)
		}
		var rec runner.CellRecord
		if jerr := json.Unmarshal(b, &rec); jerr != nil {
			if _, perr := rd.Peek(1); perr == io.EOF {
				return nil // torn final line
			}
			return fmt.Errorf("corpus: cells %s line %d: %w", r.CellsPath(), line, jerr)
		}
		if !f.MatchScenario(rec.Scenario) {
			continue
		}
		if err := emit(b); err != nil {
			return err
		}
	}
}
