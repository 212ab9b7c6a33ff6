// Package xrand provides the deterministic pseudo-random substrate used by
// every simulation in this module.
//
// The generator is xoshiro256++ seeded through splitmix64. Compared to
// math/rand it offers (a) cheap value-type state that can be embedded
// per-node so that parallel simulations are reproducible independent of
// goroutine scheduling, (b) explicit stream derivation (SeedFor) so a
// single master seed fans out into statistically independent streams for
// (run, node) pairs, and (c) the exact samplers the gossiping algorithms
// need (bounded integers, Bernoulli coins, geometric skips for G(n,p)
// generation).
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256++ generator. The zero value is not a valid generator;
// use New. RNG is a value type: copying it forks the stream
// deterministically (both copies then produce the same sequence); an
// independent stream comes from New(SeedFor(...)).
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances *x and returns the next splitmix64 output. It is used
// for seeding and for hashing seed material.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds yield streams
// that are independent for all practical purposes (the seed is expanded
// through splitmix64 as recommended by the xoshiro authors).
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes r in place from seed.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro must not be seeded with the all-zero state; splitmix64 of any
	// seed makes that astronomically unlikely, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s3 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// SeedFor derives a stream seed from a master seed and a list of stream
// coordinates (e.g. run index, node index, phase tag). It is a splitmix64
// hash chain, so distinct coordinate tuples give independent seeds.
func SeedFor(master uint64, coords ...uint64) uint64 {
	x := master
	h := splitmix64(&x)
	for _, c := range coords {
		x = h ^ c
		h = splitmix64(&x)
	}
	return h
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// The implementation is Lemire's nearly-divisionless bounded sampler, which
// is unbiased.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Lemire: multiply-shift with rejection in the low word.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		for thresh := -n % n; lo < thresh; {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns the number of failures before the first success in
// independent Bernoulli(p) trials, i.e. a sample from the geometric
// distribution on {0, 1, 2, ...}. It is the skip length used by the G(n,p)
// edge sampler. p must be in (0, 1]. It costs one Uint64, or none at p = 1.
//
// The sample is the inverse CDF floor(log(U) / log(1-p)), and the division
// must stay a division: multiplying by a hoisted 1/log(1-p) rounds the
// quotient differently for some U, floor turns that into a different skip,
// and every seeded graph and archived run downstream changes with it.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("xrand: Geometric with non-positive p")
	}
	return int(geometricSkip(r.Uint64(), math.Log1p(-p)))
}

// geometricSkip is Geometric's arithmetic on one drawn word w, of which
// Float64 makes the U in (0, 1], with logq = log(1-p); shared with
// GeometricSkips so that both round alike.
func geometricSkip(w uint64, logq float64) uint64 {
	u := 1.0 - float64(w>>11)*0x1p-53
	g := math.Floor(math.Log(u) / logq)
	if g < 0 {
		return 0
	}
	if g > math.MaxInt32 {
		return math.MaxInt32
	}
	return uint64(g)
}

// GeometricSkips is the batch form of Geometric: it replaces every word of
// dst, r.Uint64() outputs in the order drawn, by the skip Geometric(p)
// returns when it draws that word (0 at p = 1, where Geometric draws
// none). It reads no generator and log(1-p) is computed once, so disjoint
// pieces of a block of draws can be converted concurrently.
func GeometricSkips(dst []uint64, p float64) {
	if !(p > 0 && p <= 1) {
		panic("xrand: GeometricSkips with p outside (0,1]")
	}
	logq := math.Log1p(-p)
	for i, w := range dst {
		dst[i] = geometricSkip(w, logq)
	}
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleK returns k distinct values drawn uniformly from [0, n) using
// Floyd's algorithm. The result order is not uniform (callers who need a
// uniform ordered sample should Shuffle it). It panics if k > n or k < 0.
func (r *RNG) SampleK(n, k int) []int32 {
	if k < 0 || k > n {
		panic("xrand: SampleK with k out of range")
	}
	chosen := make(map[int32]struct{}, k)
	out := make([]int32, 0, k)
	for j := n - k; j < n; j++ {
		t := int32(r.Intn(j + 1))
		if _, ok := chosen[t]; ok {
			t = int32(j)
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
