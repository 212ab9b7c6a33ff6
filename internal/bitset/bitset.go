// Package bitset implements dense fixed-width bitsets and bitset matrices.
//
// These are the message-set representation of the gossiping simulators: node
// v's knowledge is a row of an n×n bit matrix, and a "combined packet" is a
// word-parallel union. Union operations return the number of newly set bits
// so the simulation can maintain global completion counters incrementally
// instead of rescanning n² bits per round.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

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

// FromIndices returns a Set of width n with exactly the given bits set.
func FromIndices(n int, idx ...int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// Len returns the width of the universe.
func (s *Set) Len() int { return s.n }

// Add sets bit i.
func (s *Set) Add(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
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

// trimTail zeroes the unused high bits of the final word so Count and Equal
// stay exact.
func (s *Set) trimTail() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % wordBits)) - 1
	}
}

// UnionWith ors o into s and returns the number of bits newly set in s.
// The two sets must have the same width.
func (s *Set) UnionWith(o *Set) int {
	if s.n != o.n {
		panic("bitset: width mismatch in UnionWith")
	}
	added := 0
	sw, ow := s.words, o.words
	for i := range sw {
		old := sw[i]
		nw := old | ow[i]
		if nw != old {
			added += bits.OnesCount64(nw &^ old)
			sw[i] = nw
		}
	}
	return added
}

// IntersectWith ands o into s and returns the number of bits cleared.
func (s *Set) IntersectWith(o *Set) int {
	if s.n != o.n {
		panic("bitset: width mismatch in IntersectWith")
	}
	removed := 0
	sw, ow := s.words, o.words
	for i := range sw {
		old := sw[i]
		nw := old & ow[i]
		if nw != old {
			removed += bits.OnesCount64(old &^ nw)
			sw[i] = nw
		}
	}
	return removed
}

// DifferenceWith removes o's bits from s and returns the number cleared.
func (s *Set) DifferenceWith(o *Set) int {
	if s.n != o.n {
		panic("bitset: width mismatch in DifferenceWith")
	}
	removed := 0
	sw, ow := s.words, o.words
	for i := range sw {
		old := sw[i]
		nw := old &^ ow[i]
		if nw != old {
			removed += bits.OnesCount64(old &^ nw)
			sw[i] = nw
		}
	}
	return removed
}

// CopyFrom overwrites s with o. Widths must match.
func (s *Set) CopyFrom(o *Set) {
	if s.n != o.n {
		panic("bitset: width mismatch in CopyFrom")
	}
	copy(s.words, o.words)
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Equal reports whether s and o have the same width and the same bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Full reports whether all n bits are set.
func (s *Set) Full() bool { return s.Count() == s.n }

// ForEach calls fn for every set bit in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// String renders the set as {i, j, ...}; intended for tests and debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
