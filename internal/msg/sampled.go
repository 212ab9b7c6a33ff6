package msg

import (
	"slices"

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
// Full on overlapping sizes). Transfers into distinct dst may run
// concurrently, all into one dst from one goroutine (as Full's), and
// share no counter: EndRound recounts the pairs in one pass.
type Sampled struct {
	n         int
	ids       []int32        // sampled message ids, ascending
	cur, next *bitset.Matrix // n rows × K columns
	total     int64          // informed (node, sampled message) pairs, as of the last EndRound
	inRound   bool
	copyFn    func(lo, hi int) // BeginRound's par.For body, bound once
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
		n:     n,
		ids:   ids,
		cur:   bitset.NewMatrix(n, k, nil),
		next:  bitset.NewMatrix(n, k, nil),
		total: int64(k),
	}
	for c, id := range ids {
		s.cur.Row(int(id)).Add(c)
	}
	s.copyFn = func(lo, hi int) { s.next.CopyRowsFrom(s.cur, lo, hi) }
	return s
}

// BeginRound snapshots the whole state; rows are a word or two, so it is cheap.
func (s *Sampled) BeginRound() {
	if s.inRound {
		panic("msg: BeginRound while a round is open")
	}
	s.inRound = true
	par.For(s.n, s.copyFn)
}

// EndRound publishes the next state and recounts the informed pairs.
func (s *Sampled) EndRound() {
	if !s.inRound {
		panic("msg: EndRound without BeginRound")
	}
	s.inRound = false
	s.cur, s.next = s.next, s.cur
	s.total = int64(s.cur.Count())
}

// Transfer delivers src's round-start sampled set to dst and returns how
// many sampled messages are new to dst. Concurrency as documented on
// Sampled.
func (s *Sampled) Transfer(src, dst int32) int {
	if !s.inRound {
		panic("msg: Transfer outside a round")
	}
	return s.next.UnionRow(int(dst), s.cur, int(src))
}

// Settle is a no-op: rows are a word or two, so Transfer lands at once.
func (s *Sampled) Settle(int32) {}

// Complete reports whether every node knows every sampled message.
func (s *Sampled) Complete() bool {
	return s.total == int64(s.n)*int64(len(s.ids))
}
