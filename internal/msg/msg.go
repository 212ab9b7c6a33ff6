// Package msg tracks which original messages each node knows.
//
// Full is the exact tracker: row v of an n×n bit matrix is the set of
// original messages at node v. A synchronous step reads round-start sets
// while writes land in the next state, matching the model's
// m_v(t) = ∪_{i<t} m_v^{(in)}(i) semantics (§2): a transfer only records
// the packet, and the receiver's next state is settled as the union of
// its set and every packet of the round, reading each row once. The
// double buffer behind that is kept per row, so a round costs what its
// packets touch and a row nobody called costs nothing. The global count
// of (node, message) pairs is maintained incrementally, so completion
// detection ("run until the entire graph is informed", §5) is O(1).
package msg

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gossip/internal/bitset"
)

const (
	pendSlots   = 4    // packets a row holds unsettled; a fifth settles inline
	fillPending = 0xff // npend value: a full packet arrived, the settle fills
)

// Full is the exact message tracker. Memory is 2·n²/8 bytes plus ≈ 26 per
// row; the experiment harness documents the resulting practical bound on n
// (exp.Figure1). The two n²/8-byte matrices outlive the tracker: Release
// puts their storage on a spare list of at most GOMAXPROCS pairs (one per
// concurrently running cell), and NewFull takes the last pair released,
// clearing it, when it holds n×n bits, and drops it otherwise. The
// per-row slices are allocated afresh. A released tracker panics on use.
//
// Row v lives in mat[live[v]]; its slot in the other matrix is scratch.
// Transfer(src, dst) reads no row: it appends src to dst's pending slots,
// or, when src holds all n messages, marks dst for a fill. Settle(v)
// writes scratch = base | s₁ | … | s_k reading each row once, where the
// base is the live row, or the scratch row once an earlier settle this
// round added something (now[v] != have[v]); a row whose slots overflow
// settles inline. EndRound settles what is left and flips live[v] for
// every row that grew, adding its growth to the pair count, so an
// unchanged row never flips. The scratch slot only ever holds an earlier
// state of the same row, hence a subset of the live one, and is
// overwritten whole before it is read. A full row takes no packets.
//
// Concurrency inside a round: transfers for distinct dst may run
// concurrently; all transfers into one dst, and Settle(dst) after the last
// of them in a step, come from one goroutine, which alone writes dst's
// slots, now[dst] and dst's scratch slot; and what a src is read through —
// live, the live row, have — is written only between rounds.
type Full struct {
	n       int
	mat     [2]*bitset.Matrix
	live    []uint8            // which matrix holds row v
	have    []int32            // |m_v| at round start
	now     []int32            // |m_v| with this round's settled packets; have[v] outside a round
	pend    [][pendSlots]int32 // packets into v not yet settled
	npend   []uint8            // used slots of pend[v], or fillPending
	total   atomic.Int64       // set bits in the live state
	inRound bool
}

// spares holds the matrix storage of released trackers, the last released last.
var spares struct {
	sync.Mutex
	pairs [][2][]uint64
}

// NewFull returns a tracker where node v knows exactly its own message v.
func NewFull(n int) *Full {
	var s [2][]uint64
	spares.Lock()
	if k := len(spares.pairs) - 1; k >= 0 {
		s, spares.pairs[k] = spares.pairs[k], s // the slot must not keep a pair NewMatrix drops
		spares.pairs = spares.pairs[:k]
	}
	spares.Unlock()
	f := &Full{
		n:     n,
		mat:   [2]*bitset.Matrix{bitset.NewMatrix(n, n, s[0]), bitset.NewMatrix(n, n, s[1])},
		live:  make([]uint8, n),
		have:  make([]int32, n),
		now:   make([]int32, n),
		pend:  make([][pendSlots]int32, n),
		npend: make([]uint8, n),
	}
	for v := 0; v < n; v++ {
		f.mat[0].Row(v).Add(v)
		f.have[v], f.now[v] = 1, 1
	}
	f.total.Store(int64(n))
	return f
}

// Release puts f's matrix storage on the spare list for a later NewFull,
// or drops it when the list is full, and poisons f: every method panics.
// Call it once, when nothing reads f or a row of it any more.
func (f *Full) Release() {
	s := [2][]uint64{f.mat[0].Storage(), f.mat[1].Storage()}
	*f = Full{}
	spares.Lock()
	defer spares.Unlock()
	if len(spares.pairs) < runtime.GOMAXPROCS(0) {
		spares.pairs = append(spares.pairs, s)
	}
}

// BeginRound opens a round: subsequent Transfer calls read round-start sets
// and write the next state. Rounds must not nest.
func (f *Full) BeginRound() {
	if f.inRound || f.live == nil {
		panic("msg: BeginRound while a round is open, or after Release")
	}
	f.inRound = true
}

// EndRound settles every row still pending and publishes the next state of
// every row that grew.
func (f *Full) EndRound() {
	if !f.inRound {
		panic("msg: EndRound without BeginRound")
	}
	f.inRound = false
	for v, k := range f.npend { // every settle before any flip: settles read live rows
		if k != 0 {
			f.Settle(int32(v))
		}
	}
	var grown int64
	for v, now := range f.now {
		if now != f.have[v] {
			f.live[v] ^= 1
			grown += int64(now - f.have[v])
			f.have[v] = now
		}
	}
	f.total.Add(grown)
}

// Transfer delivers src's round-start packet to dst's next state. It only
// records the packet, and dst's row and the counts change when Settle(dst)
// or EndRound folds it in, so it returns 0. Safe to call concurrently for
// distinct dst; all transfers to one dst must come from the same goroutine.
func (f *Full) Transfer(src, dst int32) int {
	if !f.inRound {
		panic("msg: Transfer outside a round")
	}
	n, k := int32(f.n), f.npend[dst]
	switch {
	case f.now[dst] == n || k == fillPending || src == dst: // adds nothing
	case f.have[src] == n:
		f.npend[dst] = fillPending
	default:
		if k == pendSlots {
			f.Settle(dst)
			k = 0
		}
		f.pend[dst][k] = src
		f.npend[dst] = k + 1
	}
	return 0
}

// Settle folds the packets recorded for v since its last settle into v's
// next state, reading each row once. Call it from the goroutine that
// delivers to v, after its last Transfer into v of the step; EndRound
// settles whatever is left.
func (f *Full) Settle(v int32) {
	k, now, live := f.npend[v], f.now[v], f.live[v]
	if k == 0 {
		return
	}
	f.npend[v] = 0
	next, added := f.mat[live^1], f.n-int(now)
	if k == fillPending {
		next.Row(int(v)).Fill()
	} else {
		base := f.mat[live] // nothing settled yet: the scratch slot is stale
		if now != f.have[v] {
			base = next
		}
		// A literal of all four views, stale slots too, keeps them on the stack.
		p := &f.pend[v]
		srcs := [pendSlots]*bitset.Set{f.Row(p[0]), f.Row(p[1]), f.Row(p[2]), f.Row(p[3])}
		added = next.SetRowUnion(int(v), base.Row(int(v)), srcs[:k]...)
	}
	f.now[v] = now + int32(added)
}

// Meet is the random-walk arrival rule of Algorithm 1 Phase II
// (m' ← m' ∪ m_v, m_v ← m_v ∪ m'): one pass leaves the token tok and v's
// live set both equal to their union. No round may be open; the merged set
// is first transmitted in a later step, so it cannot leak information
// within a step. Meets into distinct v may run concurrently. Returns the
// number of messages new to v.
func (f *Full) Meet(tok *bitset.Set, v int32) int {
	if f.inRound {
		panic("msg: Meet inside a round")
	}
	added := f.Row(v).UnionBoth(tok)
	f.have[v] += int32(added)
	f.now[v] = f.have[v]
	f.total.Add(int64(added))
	return added
}

// Row returns a read-only view of v's live message set (inside a round,
// its round-start set). Do not mutate; do not hold across EndRound.
func (f *Full) Row(v int32) *bitset.Set { return f.mat[f.live[v]].Row(int(v)) }

// Complete reports whether every node knows every message.
func (f *Full) Complete() bool {
	if f.live == nil {
		panic("msg: Complete after Release")
	}
	return f.total.Load() == int64(f.n)*int64(f.n)
}
