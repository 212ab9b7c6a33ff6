package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"gossip/internal/sweep"
)

// MetricAgg is the serialized aggregate of one metric over a cell's
// repetitions — the on-disk shape of a stats.Acc. It is what the sweep
// JSONL stream and the corpus cells.jsonl store per metric.
type MetricAgg struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int64   `json:"n"`
}

// CellRecord is the serialized form of one CellResult: the full
// scenario plus its per-metric aggregates. One JSON-encoded CellRecord
// per line is the sweep stream format and the corpus cells.jsonl
// format; the scenario travels with every line so downstream tooling
// needs no side channel to interpret a row, and Scenario.Index is the
// line's position, which resume and the ordered writer rely on.
type CellRecord struct {
	Scenario
	Metrics map[string]MetricAgg `json:"metrics"`
}

// Record converts the in-memory result to its serialized form.
func (c CellResult) Record() CellRecord {
	rec := CellRecord{Scenario: c.Scenario, Metrics: make(map[string]MetricAgg, len(c.Metrics))}
	for k, a := range c.Metrics {
		rec.Metrics[k] = MetricAgg{
			Mean: a.Mean(), CI95: a.CI95(), Min: a.Min(), Max: a.Max(), N: a.N(),
		}
	}
	return rec
}

// Records converts a result slice.
func Records(results []CellResult) []CellRecord {
	recs := make([]CellRecord, len(results))
	for i, r := range results {
		recs[i] = r.Record()
	}
	return recs
}

// recordMetricKeys returns the union of metric names across records,
// sorted.
func recordMetricKeys(records []CellRecord) []string {
	set := map[string]bool{}
	for _, r := range records {
		for k := range r.Metrics {
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RecordTable renders records as one row per cell: the scenario
// dimensions followed by mean and 95% CI half-width of every metric. A
// stored run's records render identically to the in-memory results they
// were recorded from (JSON float round-tripping is exact).
// Knob columns (k, trees, memslots, walkprob) appear only when some
// record sets them, so grids that do not use the knobs render as
// before.
func RecordTable(title string, records []CellRecord) *sweep.Table {
	keys := recordMetricKeys(records)
	var anyTrees, anySlots, anyWalk, anyK bool
	for _, r := range records {
		anyTrees = anyTrees || r.Trees > 0
		anySlots = anySlots || r.MemSlots > 0
		anyWalk = anyWalk || r.WalkProb > 0
		anyK = anyK || r.SampleK > 0
	}
	cols := []string{"algo", "model", "n", "density", "failures"}
	if anyTrees {
		cols = append(cols, "trees")
	}
	if anySlots {
		cols = append(cols, "memslots")
	}
	if anyWalk {
		cols = append(cols, "walkprob")
	}
	if anyK {
		cols = append(cols, "k")
	}
	for _, k := range keys {
		cols = append(cols, k, "±")
	}
	t := &sweep.Table{Title: title, Columns: cols}
	for _, r := range records {
		s := r.Scenario
		cells := []any{s.Algo, s.Model, s.N, s.density(), s.Failures}
		if anyTrees {
			cells = append(cells, s.Trees)
		}
		if anySlots {
			cells = append(cells, s.MemSlots)
		}
		if anyWalk {
			cells = append(cells, s.WalkProb)
		}
		if anyK {
			cells = append(cells, s.SampleK)
		}
		for _, k := range keys {
			a, ok := r.Metrics[k]
			if !ok {
				cells = append(cells, "-", "-")
				continue
			}
			cells = append(cells, a.Mean, fmt.Sprintf("%.3g", a.CI95))
		}
		t.AddRow(cells...)
	}
	return t
}

// WriteJSONL streams results as JSON lines, one CellRecord per line, in
// cell order. The stream is deterministic: cell order and per-cell
// values are independent of the worker count that produced the results.
func WriteJSONL(w io.Writer, results []CellResult) error {
	return WriteRecordJSONL(w, Records(results))
}

// WriteRecordJSONL streams already-serialized records as JSON lines.
func WriteRecordJSONL(w io.Writer, records []CellRecord) error {
	enc := json.NewEncoder(w)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("runner: write jsonl: %w", err)
		}
	}
	return nil
}
