// Package bitset implements dense fixed-width bitsets and bitset matrices.
//
// These are the message-set representation of the gossiping simulators: node
// v's knowledge is a row of an n×n bit matrix, and a "combined packet" is a
// word-parallel union. Union operations return the number of newly set bits
// so the simulation can maintain global completion counters incrementally
// instead of rescanning n² bits per round.
package bitset

import "math/bits"

const wordBits = 64

// wordsFor returns the number of 64-bit words needed for n bits.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Set is a fixed-width bitset over the universe [0, Len()).
// A Set may be a view into a Matrix row; views share storage with the matrix.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set of width n with all bits clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative width")
	}
	return &Set{words: make([]uint64, wordsFor(n)), n: n}
}

// Len returns the width of the universe.
func (s *Set) Len() int { return s.n }

// Add sets bit i.
func (s *Set) Add(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Fill sets all n bits (and leaves the tail of the last word clear).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trimTail()
}

// trimTail zeroes the unused high bits of the final word so Count stays
// exact.
func (s *Set) trimTail() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % wordBits)) - 1
	}
}

// CopyFrom overwrites s with o. Widths must match.
func (s *Set) CopyFrom(o *Set) {
	if s.n != o.n {
		panic("bitset: width mismatch in CopyFrom")
	}
	copy(s.words, o.words)
}

// UnionBoth sets s and o both to s ∪ o in one pass and returns the number
// of bits o added to s.
func (s *Set) UnionBoth(o *Set) int {
	if s.n != o.n {
		panic("bitset: width mismatch in UnionBoth")
	}
	added := 0
	ow := o.words[:len(s.words)]
	for i, old := range s.words {
		nw := old | ow[i]
		s.words[i], ow[i] = nw, nw
		added += bits.OnesCount64(nw &^ old)
	}
	return added
}
