package msg

import (
	"slices"
	"sync/atomic"

	"gossip/internal/bitset"
	"gossip/internal/par"
	"gossip/internal/xrand"
)

// Sampled tracks the spread of K sampled original messages exactly, in
// Θ(n·K) bits instead of the full tracker's Θ(n²). It turns the gossiping
// simulators into estimators for sizes where n² tracking does not fit:
// completion of the sample lower-bounds true completion, and because
// per-message completion times concentrate sharply on the graphs of the
// paper, the gap is an additive O(1) rounds (tests quantify it against
// Full on overlapping sizes).
type Sampled struct {
	n         int
	ids       []int32 // sampled message ids, ascending
	col       map[int32]int
	cur, next *bitset.Matrix // n rows × K columns
	total     atomic.Int64   // informed (node, sampled message) pairs
	inRound   bool
}

// NewSampled returns a tracker following k messages drawn uniformly
// without replacement (k is clamped to n). Each sampled message starts
// known only to its origin.
func NewSampled(n, k int, seed uint64) *Sampled {
	if k > n {
		k = n
	}
	rng := xrand.New(seed)
	ids := rng.SampleK(n, k)
	slices.Sort(ids) // deterministic iteration; SampleK's order is not uniform anyway
	s := &Sampled{
		n:    n,
		ids:  ids,
		col:  make(map[int32]int, k),
		cur:  bitset.NewMatrix(n, k),
		next: bitset.NewMatrix(n, k),
	}
	for c, id := range ids {
		s.col[id] = c
		s.cur.Row(int(id)).Add(c)
	}
	s.total.Store(int64(k))
	return s
}

// K returns the number of tracked messages.
func (s *Sampled) K() int { return len(s.ids) }

// IDs returns the sampled message ids (ascending). Do not modify.
func (s *Sampled) IDs() []int32 { return s.ids }

// BeginRound snapshots the whole state; rows are a word or two, so it is cheap.
func (s *Sampled) BeginRound() {
	if s.inRound {
		panic("msg: BeginRound while a round is open")
	}
	s.inRound = true
	par.For(s.n, func(lo, hi int) {
		s.next.CopyRowsFrom(s.cur, lo, hi)
	})
}

// EndRound publishes the next state.
func (s *Sampled) EndRound() {
	if !s.inRound {
		panic("msg: EndRound without BeginRound")
	}
	s.inRound = false
	s.cur, s.next = s.next, s.cur
}

// Transfer delivers src's round-start sampled set to dst. Concurrency
// rules as Full.Transfer.
func (s *Sampled) Transfer(src, dst int32) int {
	if !s.inRound {
		panic("msg: Transfer outside a round")
	}
	added := s.next.UnionRow(int(dst), s.cur, int(src))
	if added != 0 {
		s.total.Add(int64(added))
	}
	return added
}

// Settle is a no-op: rows are a word or two, so Transfer lands at once.
func (s *Sampled) Settle(int32) {}

// Known returns how many sampled messages dst knows.
func (s *Sampled) Known(v int32) int { return s.cur.Row(int(v)).Count() }

// InformedOf returns how many nodes know sampled message id (which must
// be one of IDs()); it returns -1 for untracked ids.
func (s *Sampled) InformedOf(id int32) int {
	c, ok := s.col[id]
	if !ok {
		return -1
	}
	cnt := 0
	for v := 0; v < s.n; v++ {
		if s.cur.Row(v).Contains(c) {
			cnt++
		}
	}
	return cnt
}

// TotalKnown returns informed (node, sampled message) pairs.
func (s *Sampled) TotalKnown() int64 { return s.total.Load() }

// Complete reports whether every node knows every sampled message.
func (s *Sampled) Complete() bool {
	return s.total.Load() == int64(s.n)*int64(len(s.ids))
}
