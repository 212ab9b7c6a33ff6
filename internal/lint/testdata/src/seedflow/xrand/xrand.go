// Package xrand is the fixture stand-in for gossip/internal/xrand:
// seedflow matches constructors and the seed-derivation lineage by
// package *name*, so this stand-in exercises the analyzer exactly like
// the real package.
package xrand

// RNG is a minimal generator.
type RNG struct{ state uint64 }

// New returns a generator over an explicit seed.
func New(seed uint64) *RNG { return &RNG{state: seed | 1} }

// Reseed rewinds the generator onto a new seed.
func (r *RNG) Reseed(seed uint64) { r.state = seed | 1 }

// SeedFor derives a cell seed from the master seed and coordinates —
// the sanctioned lineage root.
func SeedFor(master uint64, coords ...uint64) uint64 {
	s := master
	for _, c := range coords {
		s = (s ^ c) * 0x9e3779b97f4a7c15
	}
	return s
}

// Uint64 advances the stream.
func (r *RNG) Uint64() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}
