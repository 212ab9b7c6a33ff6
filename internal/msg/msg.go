// Package msg tracks which original messages each node knows.
//
// Full is the exact tracker: row v of an n×n bit matrix is the set of
// original messages at node v. A synchronous step reads round-start sets
// while writes land in the next state, matching the model's
// m_v(t) = ∪_{i<t} m_v^{(in)}(i) semantics (§2); the double buffer behind
// that is kept per row, so a round costs what its transfers touch and a
// row nobody called costs nothing. The global count of (node, message)
// pairs is maintained incrementally, so completion detection ("run until
// the entire graph is informed", §5) is O(1).
package msg

import (
	"sync/atomic"

	"gossip/internal/bitset"
)

// Full is the exact message tracker. Memory is 2·n²/8 bytes plus 9 per
// row; the experiment harness documents the resulting practical bound on n
// (exp.Figure1).
//
// Row v lives in mat[live[v]]; its slot in the other matrix is scratch.
// The first Transfer into v in a round writes scratch = live[v] | live[src]
// in one pass, later ones or into it, and EndRound flips live[v] for every
// row that grew. A transfer that adds nothing leaves now[v] == have[v], so
// the next one simply rewrites the scratch slot and an unchanged row never
// flips. The scratch slot only ever holds an earlier state of the same row,
// hence a subset of the live one, and is overwritten whole before it is
// read. Rows that hold all n messages short-circuit: nothing can land in
// one, and a packet from one is a fill.
//
// Concurrency inside a round: transfers for distinct dst may run
// concurrently; all transfers into one dst come from one goroutine, which
// alone writes now[dst] and dst's scratch slot; and what a src is read
// through — live, the live row, have — is written only between rounds.
type Full struct {
	n       int
	mat     [2]*bitset.Matrix
	live    []uint8      // which matrix holds row v
	have    []int32      // |m_v| at round start
	now     []int32      // |m_v| with this round's transfers; have[v] outside a round
	total   atomic.Int64 // set bits in the live state
	inRound bool
}

// NewFull returns a tracker where node v knows exactly its own message v.
func NewFull(n int) *Full {
	f := &Full{
		n:    n,
		mat:  [2]*bitset.Matrix{bitset.NewMatrix(n, n), bitset.NewMatrix(n, n)},
		live: make([]uint8, n),
		have: make([]int32, n),
		now:  make([]int32, n),
	}
	for v := 0; v < n; v++ {
		f.mat[0].Row(v).Add(v)
		f.have[v], f.now[v] = 1, 1
	}
	f.total.Store(int64(n))
	return f
}

// BeginRound opens a round: subsequent Transfer calls read round-start sets
// and write the next state. Rounds must not nest.
func (f *Full) BeginRound() {
	if f.inRound {
		panic("msg: BeginRound while a round is open")
	}
	f.inRound = true
}

// EndRound publishes the next state of every row that grew.
func (f *Full) EndRound() {
	if !f.inRound {
		panic("msg: EndRound without BeginRound")
	}
	f.inRound = false
	for v, now := range f.now {
		if now != f.have[v] {
			f.live[v] ^= 1
			f.have[v] = now
		}
	}
}

// Transfer delivers src's round-start packet to dst (next state). Safe to
// call concurrently for distinct dst; all transfers to one dst must come
// from the same goroutine. Returns the number of messages new to dst.
func (f *Full) Transfer(src, dst int32) int {
	if !f.inRound {
		panic("msg: Transfer outside a round")
	}
	n, now := int32(f.n), f.now[dst]
	if now == n {
		return 0
	}
	d, live := int(dst), f.live[dst]
	next := f.mat[live^1]
	var added int
	if f.have[src] == n {
		next.Row(d).Fill()
		added = int(n - now)
	} else {
		from := next // what already landed this round
		if now == f.have[dst] {
			from = f.mat[live] // nothing yet: the scratch slot is stale
		}
		added = next.SetRowUnion(d, from, d, f.mat[f.live[src]], int(src))
	}
	if added != 0 {
		f.now[dst] = now + int32(added)
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
	added := f.mat[f.live[dst]].UnionSet(int(dst), s)
	if added != 0 {
		f.have[dst] += int32(added)
		f.now[dst] = f.have[dst]
		f.total.Add(int64(added))
	}
	return added
}

// Row returns a read-only view of v's live message set (inside a round,
// its round-start set). Do not mutate; do not hold across EndRound.
func (f *Full) Row(v int32) *bitset.Set { return f.mat[f.live[v]].Row(int(v)) }

// Known returns |m_v| for the live state.
func (f *Full) Known(v int32) int { return int(f.have[v]) }

// TotalKnown returns the total number of informed (node, message) pairs.
func (f *Full) TotalKnown() int64 { return f.total.Load() }

// Complete reports whether every node knows every message.
func (f *Full) Complete() bool { return f.total.Load() == int64(f.n)*int64(f.n) }

// InformedOf returns how many nodes know message m (O(n); tests and
// diagnostics only).
func (f *Full) InformedOf(m int32) int {
	c := 0
	for v := 0; v < f.n; v++ {
		if f.Row(int32(v)).Contains(int(m)) {
			c++
		}
	}
	return c
}

// CheckTotal recounts every live row and reports whether the per-row
// counts and the incremental pair counter match (test hook; between rounds).
func (f *Full) CheckTotal() bool {
	var sum int64
	for v, have := range f.have {
		if f.Row(int32(v)).Count() != int(have) || f.now[v] != have {
			return false
		}
		sum += int64(have)
	}
	return sum == f.total.Load()
}
