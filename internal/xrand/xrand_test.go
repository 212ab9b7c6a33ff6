package xrand

import (
	"math"
	"math/bits"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams from distinct seeds collide %d/100 times", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := New(7)
	first := r.Uint64()
	r.Uint64()
	r.Reseed(7)
	if got := r.Uint64(); got != first {
		t.Errorf("Reseed did not restart stream: %d != %d", got, first)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square-ish check on 8 buckets.
	r := New(99)
	const buckets = 8
	const samples = 80000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(samples) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from %f", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(6)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(8)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(10)
	p := 0.2
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p // mean of geometric counting failures
	if math.Abs(mean-want) > 0.15 {
		t.Errorf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(11)
	if g := r.Geometric(1); g != 0 {
		t.Errorf("Geometric(1) = %d, want 0", g)
	}
}

// TestGeometricSkipsMatchesScalar converts 10⁶ drawn words in one batch and
// requires, word for word, the skip a scalar Geometric call makes of the
// same draw, and the same stream position afterwards.
func TestGeometricSkipsMatchesScalar(t *testing.T) {
	const n = 1_000_000
	dst := make([]uint64, n)
	for _, p := range []float64{1e-9, 1e-3, 0.3, 1} {
		scalar, batch := New(21), New(21)
		for i := range dst {
			dst[i] = batch.Uint64()
		}
		GeometricSkips(dst, p)
		clamped := 0
		for i, got := range dst {
			if want := scalar.Geometric(p); got != uint64(want) {
				t.Fatalf("p=%g: skip %d is %d, scalar Geometric gives %d", p, i, got, want)
			}
			if got == math.MaxInt32 {
				clamped++
			}
		}
		if p < 1 && *scalar != *batch {
			t.Errorf("p=%g: %d scalar calls and %d drawn words leave different streams", p, n, n)
		}
		if p == 1 && *scalar != *New(21) {
			t.Errorf("Geometric(1) consumed a draw")
		}
		if p == 1e-9 && clamped == 0 {
			t.Errorf("p=1e-9 never reached the MaxInt32 clamp")
		}
	}
	for _, p := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GeometricSkips(p=%g) did not panic", p)
				}
			}()
			GeometricSkips(dst[:1], p)
		}()
	}
}

func TestSampleKDistinct(t *testing.T) {
	r := New(13)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		k := r.Intn(n + 1)
		s := r.SampleK(n, k)
		if len(s) != k {
			t.Fatalf("SampleK(%d,%d) len = %d", n, k, len(s))
		}
		seen := map[int32]bool{}
		for _, v := range s {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("SampleK(%d,%d) invalid: %v", n, k, s)
			}
			seen[v] = true
		}
	}
}

func TestSampleKCoverage(t *testing.T) {
	// Every element should be sampled eventually.
	r := New(14)
	n := 10
	hit := make([]int, n)
	for trial := 0; trial < 2000; trial++ {
		for _, v := range r.SampleK(n, 3) {
			hit[v]++
		}
	}
	for i, h := range hit {
		if h == 0 {
			t.Errorf("element %d never sampled", i)
		}
	}
}

func TestSeedForDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for run := uint64(0); run < 30; run++ {
		for node := uint64(0); node < 30; node++ {
			s := SeedFor(123, run, node)
			if seen[s] {
				t.Fatalf("SeedFor collision at run=%d node=%d", run, node)
			}
			seen[s] = true
		}
	}
	// Order of coordinates matters.
	if SeedFor(1, 2, 3) == SeedFor(1, 3, 2) {
		t.Error("SeedFor should distinguish coordinate order")
	}
}

// TestAdvance requires Advance(k) to leave r where k calls of Uint64 do,
// at the word and polynomial-degree edges from four seeds and, but for
// -short, at one random k < 2³² (about a second of stepping).
func TestAdvance(t *testing.T) {
	check := func(seed, k uint64) {
		t.Helper()
		r := New(seed)
		s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
		for range k { // Uint64's state update, on locals
			x := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= x
			s3 = rotl(s3, 45)
		}
		if r.Advance(k); *r != (RNG{s0, s1, s2, s3}) {
			t.Fatalf("seed %d: Advance(%d) left another state than %d Uint64 calls", seed, k, k)
		}
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, k := range []uint64{0, 1, 63, 64, 255, 256, 257, 1e6 + 3} {
			check(seed, k)
		}
	}
	if !testing.Short() {
		check(5, New(5).Uint64()>>32) // 1 254 228 682
	}
}

func BenchmarkAdvance(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Advance(495615)
	}
}

// TestCharPoly recomputes charPoly: Berlekamp–Massey over 512 bits of the
// state sequence (bit 0 of s0) finds the minimal polynomial of that bit,
// which divides the characteristic polynomial of M; degree 256 makes the
// two equal, and so the connection polynomial, reversed, is P.
func TestCharPoly(t *testing.T) {
	r := New(1)
	var s [512]uint8
	for i := range s {
		s[i] = uint8(r.s0 & 1)
		r.Uint64()
	}
	var c, b [513]uint8 // connection polynomial and its last copy
	c[0], b[0] = 1, 1
	l, m := 0, -1
	for n := range s {
		d := s[n]
		for i := 1; i <= l; i++ {
			d ^= c[i] & s[n-i]
		}
		if d == 0 {
			continue
		}
		prev := c
		for i := 0; i+n-m < len(c); i++ {
			c[i+n-m] ^= b[i]
		}
		if 2*l <= n {
			l, m, b = n+1-l, n, prev
		}
	}
	var p [4]uint64
	for i := 0; i < l && l == 256; i++ {
		p[i/64] |= uint64(c[l-i]) << (i % 64)
	}
	if l != 256 || p != charPoly {
		t.Fatalf("Berlekamp–Massey finds degree %d and %#x, want 256 and %#x", l, p, charPoly)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(21)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n(7) = %d", v)
		}
	}
	// Power-of-two bound.
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(1 << 40); v >= 1<<40 {
			t.Fatalf("Uint64n(2^40) = %d", v)
		}
	}
}

// limbMul64 is the 32-bit-limb 128-bit product Uint64n used before
// math/bits.Mul64.
func limbMul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

func TestMul64MatchesLimbProduct(t *testing.T) {
	edge := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	r := New(5)
	for i := 0; i < 64; i++ {
		edge = append(edge, r.Uint64())
	}
	for _, a := range edge {
		for _, b := range edge {
			hi, lo := bits.Mul64(a, b)
			if whi, wlo := limbMul64(a, b); hi != whi || lo != wlo {
				t.Fatalf("%#x * %#x = (%#x, %#x), limb product (%#x, %#x)", a, b, hi, lo, whi, wlo)
			}
		}
	}
}

// TestSkipUint64nMatchesUint64n compares the draw-only core, Uint64n and
// the Lemire loop as it was written before the slow path moved out, at
// small bounds and at two where nearly every first product's low word is
// under the bound: 2⁶⁴-1, whose threshold is 1, and 2⁶³+1, whose threshold
// of 2⁶³-1 redraws about every second one.
func TestSkipUint64nMatchesUint64n(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 495616, 1<<63 + 1, math.MaxUint64} {
		ref, got, skip := New(n), New(n), New(n)
		slow, redraws := 0, 0
		for i := 0; i < 1000; i++ {
			hi, lo := limbMul64(ref.Uint64(), n)
			if lo < n {
				slow++
				for thresh := -n % n; lo < thresh; redraws++ {
					hi, lo = limbMul64(ref.Uint64(), n)
				}
			}
			if v := got.Uint64n(n); v != hi || *got != *ref {
				t.Fatalf("Uint64n(%d) draw %d = %d, want %d, or stream position differs", n, i, v, hi)
			}
			if skip.skipUint64n(n, n); *skip != *ref {
				t.Fatalf("skipUint64n(%d, %d) draw %d left another stream position", n, n, i)
			}
		}
		if n > 1<<63 && (slow < 400 || n == 1<<63+1 && redraws < 100) {
			t.Fatalf("bound %d took the slow path %d times in 1000 and redrew %d: not exercised", n, slow, redraws)
		}
	}
}

func TestSkipShuffleMatchesShuffle(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 2, 3, 17, 495616} {
		want, got := New(uint64(n)+9), New(uint64(n)+9)
		draws := 0
		want.Shuffle(n, func(i, j int) { draws++ })
		got.SkipShuffle(n)
		if *got != *want {
			t.Fatalf("SkipShuffle(%d) left another stream position than Shuffle's %d draws", n, draws)
		}
		if n > 1 && draws != n-1 {
			t.Fatalf("Shuffle(%d) made %d draws", n, draws)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000003)
	}
	_ = sink
}
