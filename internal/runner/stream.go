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
// A stream follows either the identity order (cell indices 0, 1, 2, …
// — a full sweep) or an explicit ascending index sequence (a shard's
// owned cells — see CellRange); the prefix property holds in both.
//
// Add is safe for concurrent use; it is the natural Runner.OnCell.
type OrderedCells struct {
	mu      sync.Mutex
	emit    func(CellRecord) error
	posOf   map[int]int        // cell index → emit position; nil = identity
	pos     int                // next emit position
	pending map[int]CellRecord // completed cells keyed by emit position
	err     error
}

// NewOrderedCells returns a reorderer expecting exactly the cell indices
// in seq, in that order (a shard's owned cells; nil means the identity
// order of a full sweep), with the first done of them already emitted
// — 0 for a fresh sweep, the completed-cell count for a resumed one —
// and invoking emit once per remaining cell, in that order. Cells
// outside seq are ignored.
func NewOrderedCells(seq []int, done int, emit func(CellRecord) error) *OrderedCells {
	o := &OrderedCells{
		emit:    emit,
		pos:     done,
		pending: make(map[int]CellRecord),
	}
	if seq != nil {
		o.posOf = make(map[int]int, len(seq))
		for p, i := range seq {
			o.posOf[i] = p
		}
	}
	return o
}

// position maps a cell index to its emit position; ok is false for
// cells the stream does not own.
func (o *OrderedCells) position(index int) (int, bool) {
	if o.posOf == nil {
		return index, true
	}
	p, ok := o.posOf[index]
	return p, ok
}

// Add accepts one completed cell. Cells at or past the expected
// position buffer until contiguous; cells before it (a resumed run's
// skipped prefix) and cells the stream does not own (another shard's)
// are ignored. After an emit error the stream goes quiet and holds the
// error for Err — the sweep's computation is still valid, only its
// streaming failed.
func (o *OrderedCells) Add(c CellResult) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil {
		return
	}
	p, ok := o.position(c.Scenario.Index)
	if !ok || p < o.pos {
		return
	}
	o.pending[p] = c.Record()
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

// Position returns the emit position of a cell index — its line
// number in the completed stream — and whether the stream owns it at
// all (an identity stream owns every index).
func (o *OrderedCells) Position(index int) (int, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.position(index)
}

// Next returns the emit position of the next cell the stream is
// waiting for — for an identity stream, the cell index itself.
func (o *OrderedCells) Next() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pos
}

// Pending returns how many completed cells are buffered waiting for a
// predecessor.
func (o *OrderedCells) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pending)
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
// line — with a seq and the on-disk cell count as done, the shard
// checkpoint writer.
func NewOrderedJSONL(w io.Writer, seq []int, done int) *OrderedJSONL {
	return &OrderedJSONL{NewOrderedCells(seq, done, jsonlEmit(w))}
}

func jsonlEmit(w io.Writer) func(CellRecord) error {
	enc := json.NewEncoder(w)
	return func(r CellRecord) error {
		return enc.Encode(r)
	}
}
