package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// OrderedCells re-establishes cell-index order over a parallel run's
// completion order: completed cells arrive in any order and buffer
// until all their predecessors have been emitted, so emit sees a strict
// in-order sequence — at every instant a prefix of the full sweep. That
// prefix property is what makes ordered streams both consumable
// line-by-line and usable as checkpoints: a killed run's output is a
// valid prefix, and a resumed run appends exactly the missing suffix.
//
// Add is safe for concurrent use; it is the natural Runner.OnCell.
type OrderedCells struct {
	mu      sync.Mutex
	emit    func(CellRecord) error
	pos     int                // next cell index to emit
	pending map[int]CellRecord // completed cells keyed by cell index
	err     error
}

// NewOrderedCells returns a reorderer with cells 0..done-1 already
// emitted — 0 for a fresh sweep, the completed-cell count for a
// resumed one — invoking emit once per remaining cell, in index order.
func NewOrderedCells(done int, emit func(CellRecord) error) *OrderedCells {
	return &OrderedCells{emit: emit, pos: done, pending: make(map[int]CellRecord)}
}

// Add accepts one completed cell. Cells at or past the expected
// index buffer until contiguous; cells before it (a resumed run's
// skipped prefix) are ignored. After an emit error the stream goes quiet and holds the
// error for Err — the sweep's computation is still valid, only its
// streaming failed.
func (o *OrderedCells) Add(c CellResult) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil {
		return
	}
	i := c.Scenario.Index
	if i < o.pos {
		return
	}
	o.pending[i] = c.Record()
	for {
		rec, ok := o.pending[o.pos]
		if !ok {
			return
		}
		delete(o.pending, o.pos)
		if err := o.emit(rec); err != nil {
			o.err = fmt.Errorf("runner: stream cell %d: %w", rec.Index, err)
			o.pending = nil
			return
		}
		o.pos++
	}
}

// Err returns the first emit error, if any.
func (o *OrderedCells) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// OrderedJSONL is an OrderedCells emitting JSON lines — the sweep
// stream and corpus cells.jsonl writer.
type OrderedJSONL struct {
	*OrderedCells
}

// NewOrderedJSONL is NewOrderedCells writing each cell to w as one JSON
// line.
func NewOrderedJSONL(w io.Writer, done int) *OrderedJSONL {
	return &OrderedJSONL{NewOrderedCells(done, jsonlEmit(w))}
}

func jsonlEmit(w io.Writer) func(CellRecord) error {
	enc := json.NewEncoder(w)
	return func(r CellRecord) error {
		return enc.Encode(r)
	}
}
