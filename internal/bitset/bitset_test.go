package bitset

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func fromIndices(n int, idx ...int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// combine sets each word of s to op(word, o's word) and returns how many
// bits changed: the set algebra the tests state their properties in.
func combine(s, o *Set, op func(a, b uint64) uint64) int {
	if s.n != o.n {
		panic("bitset test: width mismatch")
	}
	changed := 0
	for i, old := range s.words {
		s.words[i] = op(old, o.words[i])
		changed += bits.OnesCount64(old ^ s.words[i])
	}
	return changed
}

// unionWith ors o into s and returns the number of bits newly set in s.
func unionWith(s, o *Set) int { return combine(s, o, func(a, b uint64) uint64 { return a | b }) }

// intersectWith ands o into s and returns the number of bits cleared.
func intersectWith(s, o *Set) int { return combine(s, o, func(a, b uint64) uint64 { return a & b }) }

// differenceWith removes o's bits from s and returns the number cleared.
func differenceWith(s, o *Set) int { return combine(s, o, func(a, b uint64) uint64 { return a &^ b }) }

// equal reports whether s and o have the same width and the same bits.
func equal(s, o *Set) bool { return s.n == o.n && slices.Equal(s.words, o.words) }

// members lists s's set bits in increasing order.
func members(s *Set) []int {
	var idx []int
	for i := range s.Len() {
		if s.Contains(i) {
			idx = append(idx, i)
		}
	}
	return idx
}

func clone(s *Set) *Set {
	c := New(s.Len())
	c.CopyFrom(s)
	return c
}

func TestNewEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		s := New(n)
		if s.Len() != n {
			t.Errorf("Len() = %d, want %d", s.Len(), n)
		}
		if s.Count() != 0 {
			t.Errorf("new set of width %d has Count %d", n, s.Count())
		}
	}
}

func TestAddContainsRemove(t *testing.T) {
	s := New(200)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range idx {
		s.Add(i)
	}
	for _, i := range idx {
		if !s.Contains(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if s.Count() != len(idx) {
		t.Errorf("Count = %d, want %d", s.Count(), len(idx))
	}
	differenceWith(s, fromIndices(200, 64))
	if s.Contains(64) {
		t.Error("bit 64 should have been removed")
	}
	if s.Count() != len(idx)-1 {
		t.Errorf("Count after Remove = %d, want %d", s.Count(), len(idx)-1)
	}
}

func TestFillAndFull(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Errorf("Fill width %d: Count = %d", n, s.Count())
		}
		for i := 0; i < n; i++ {
			if !s.Contains(i) {
				t.Errorf("Fill width %d: bit %d clear", n, i)
			}
		}
	}
}

func TestUnionWithReturnsNewBits(t *testing.T) {
	a := fromIndices(100, 1, 2, 3)
	b := fromIndices(100, 3, 4, 5)
	added := unionWith(a, b)
	if added != 2 {
		t.Errorf("UnionWith added = %d, want 2", added)
	}
	want := fromIndices(100, 1, 2, 3, 4, 5)
	if !equal(a, want) {
		t.Errorf("union = %v, want %v", members(a), members(want))
	}
	// Second union adds nothing.
	if added := unionWith(a, b); added != 0 {
		t.Errorf("repeated union added %d bits", added)
	}
}

func TestIntersectAndDifference(t *testing.T) {
	a := fromIndices(100, 1, 2, 3, 70)
	b := fromIndices(100, 2, 3, 4, 71)
	removed := intersectWith(a, b)
	if removed != 2 { // 1 and 70 removed
		t.Errorf("IntersectWith removed = %d, want 2", removed)
	}
	if !equal(a, fromIndices(100, 2, 3)) {
		t.Errorf("intersection = %v", members(a))
	}

	c := fromIndices(100, 1, 2, 3)
	d := fromIndices(100, 2)
	if rem := differenceWith(c, d); rem != 1 {
		t.Errorf("DifferenceWith removed = %d, want 1", rem)
	}
	if !equal(c, fromIndices(100, 1, 3)) {
		t.Errorf("difference = %v", members(c))
	}
}

// subset reports a ⊆ b: a union into a copy of b adds nothing.
func subset(a, b *Set) bool { return unionWith(clone(b), a) == 0 }

func TestSubset(t *testing.T) {
	a := fromIndices(100, 1, 2)
	b := fromIndices(100, 1, 2, 3)
	if !subset(a, b) {
		t.Error("a should be subset of b")
	}
	if subset(b, a) {
		t.Error("b should not be subset of a")
	}
	if !subset(a, a) {
		t.Error("a should be subset of itself")
	}
}

func TestForEachAndIndices(t *testing.T) {
	idx := []int{0, 5, 64, 99}
	s := fromIndices(100, idx...)
	if got := members(s); !slices.Equal(got, idx) {
		t.Errorf("set bits %v, want %v", got, idx)
	}
}

// randomSet builds a set of width n from a rand source for property tests.
func randomSet(r *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			s.Add(i)
		}
	}
	return s
}

func TestQuickUnionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)
		ab := clone(a)
		unionWith(ab, b)
		ba := clone(b)
		unionWith(ba, a)
		return equal(ab, ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionCountConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)
		before := a.Count()
		added := unionWith(a, b)
		return a.Count() == before+added
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a := randomSet(r, n)
		c := clone(a)
		if unionWith(c, a) != 0 {
			return false
		}
		return equal(c, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorganViaDifference(t *testing.T) {
	// |A| = |A∩B| + |A\B|
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)
		inter := clone(a)
		intersectWith(inter, b)
		diff := clone(a)
		differenceWith(diff, b)
		return a.Count() == inter.Count()+diff.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetAfterUnion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)
		u := clone(a)
		unionWith(u, b)
		return subset(a, u) && subset(b, u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on width mismatch")
		}
	}()
	New(10).UnionBoth(New(20))
}
