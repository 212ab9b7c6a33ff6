// Package msg tracks which original messages each node knows.
//
// Full is the exact tracker: an n×n bit matrix (row v = set of original
// messages at node v) double-buffered so that a synchronous step reads
// round-start snapshots while writes land in the next state, matching the
// model's m_v(t) = ∪_{i<t} m_v^{(in)}(i) semantics (§2). It maintains the
// global count of (node, message) pairs incrementally, so completion
// detection ("run until the entire graph is informed", §5) is O(1).
package msg

import (
	"sync/atomic"

	"gossip/internal/bitset"
	"gossip/internal/par"
)

// Full is the exact message tracker. Memory is 2·n²/8 bytes; the experiment
// harness documents the resulting practical bound on n (exp.Figure1).
type Full struct {
	n         int
	cur, next *bitset.Matrix
	total     atomic.Int64 // set bits in the live state
	inRound   bool
}

// NewFull returns a tracker where node v knows exactly its own message v.
func NewFull(n int) *Full {
	f := &Full{
		n:    n,
		cur:  bitset.NewMatrix(n, n),
		next: bitset.NewMatrix(n, n),
	}
	for v := 0; v < n; v++ {
		f.cur.Row(v).Add(v)
	}
	f.total.Store(int64(n))
	return f
}

// N returns the number of nodes (= number of original messages).
func (f *Full) N() int { return f.n }

// BeginRound snapshots the current state; subsequent Transfer calls read
// the snapshot and write the next state. Rounds must not nest.
func (f *Full) BeginRound() {
	if f.inRound {
		panic("msg: BeginRound while a round is open")
	}
	f.inRound = true
	par.For(f.n, func(lo, hi int) {
		f.next.CopyRowsFrom(f.cur, lo, hi)
	})
}

// EndRound publishes the next state.
func (f *Full) EndRound() {
	if !f.inRound {
		panic("msg: EndRound without BeginRound")
	}
	f.inRound = false
	f.cur, f.next = f.next, f.cur
}

// Transfer delivers src's round-start packet to dst (next state). Safe to
// call concurrently for distinct dst; all transfers to one dst must come
// from the same goroutine. Returns the number of messages new to dst.
func (f *Full) Transfer(src, dst int32) int {
	if !f.inRound {
		panic("msg: Transfer outside a round")
	}
	added := f.next.UnionRow(int(dst), f.cur, int(src))
	if added != 0 {
		f.total.Add(int64(added))
	}
	return added
}

// MergeNow merges s into dst's live state immediately (no round open).
// This is the random-walk arrival rule of Algorithm 1 Phase II
// (m_v ← m_v ∪ m'), where the merged set is first transmitted in a later
// step, so immediate merging cannot leak information within a step.
func (f *Full) MergeNow(s *bitset.Set, dst int32) int {
	if f.inRound {
		panic("msg: MergeNow inside a round")
	}
	added := f.cur.UnionSet(int(dst), s)
	if added != 0 {
		f.total.Add(int64(added))
	}
	return added
}

// Row returns a read-only view of dst's live message set. Do not mutate;
// do not hold across BeginRound/EndRound.
func (f *Full) Row(v int32) *bitset.Set { return f.cur.Row(int(v)) }

// RowInto repoints view at v's live row without allocating.
func (f *Full) RowInto(view *bitset.Set, v int32) { f.cur.RowInto(view, int(v)) }

// Known returns |m_v| for the live state.
func (f *Full) Known(v int32) int { return f.cur.Row(int(v)).Count() }

// TotalKnown returns the total number of informed (node, message) pairs.
func (f *Full) TotalKnown() int64 { return f.total.Load() }

// Complete reports whether every node knows every message.
func (f *Full) Complete() bool { return f.total.Load() == int64(f.n)*int64(f.n) }

// InformedOf returns how many nodes know message m (O(n); tests and
// diagnostics only).
func (f *Full) InformedOf(m int32) int {
	c := 0
	for v := 0; v < f.n; v++ {
		if f.cur.Row(v).Contains(int(m)) {
			c++
		}
	}
	return c
}

// CheckTotal recomputes the pair count from scratch and reports whether it
// matches the incremental counter (test hook).
func (f *Full) CheckTotal() bool { return f.cur.TotalCount() == f.total.Load() }
