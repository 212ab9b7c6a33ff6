package bitset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

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
	s.Remove(64)
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
		if !s.Full() {
			t.Errorf("Fill width %d: not Full", n)
		}
	}
}

func TestUnionWithReturnsNewBits(t *testing.T) {
	a := FromIndices(100, 1, 2, 3)
	b := FromIndices(100, 3, 4, 5)
	added := a.UnionWith(b)
	if added != 2 {
		t.Errorf("UnionWith added = %d, want 2", added)
	}
	want := FromIndices(100, 1, 2, 3, 4, 5)
	if !a.Equal(want) {
		t.Errorf("union = %v, want %v", a, want)
	}
	// Second union adds nothing.
	if added := a.UnionWith(b); added != 0 {
		t.Errorf("repeated union added %d bits", added)
	}
}

func TestIntersectAndDifference(t *testing.T) {
	a := FromIndices(100, 1, 2, 3, 70)
	b := FromIndices(100, 2, 3, 4, 71)
	removed := a.IntersectWith(b)
	if removed != 2 { // 1 and 70 removed
		t.Errorf("IntersectWith removed = %d, want 2", removed)
	}
	if !a.Equal(FromIndices(100, 2, 3)) {
		t.Errorf("intersection = %v", a)
	}

	c := FromIndices(100, 1, 2, 3)
	d := FromIndices(100, 2)
	if rem := c.DifferenceWith(d); rem != 1 {
		t.Errorf("DifferenceWith removed = %d, want 1", rem)
	}
	if !c.Equal(FromIndices(100, 1, 3)) {
		t.Errorf("difference = %v", c)
	}
}

// subset reports a ⊆ b: a union into a copy of b adds nothing.
func subset(a, b *Set) bool { return b.Clone().UnionWith(a) == 0 }

func TestSubset(t *testing.T) {
	a := FromIndices(100, 1, 2)
	b := FromIndices(100, 1, 2, 3)
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
	s := FromIndices(100, idx...)
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if !slices.Equal(got, idx) {
		t.Errorf("ForEach visits %v, want %v", got, idx)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(100, 1, 2)
	b := a.Clone()
	b.Add(50)
	if a.Contains(50) {
		t.Error("Clone shares storage with original")
	}
	if !b.Contains(1) || !b.Contains(2) {
		t.Error("Clone lost bits")
	}
}

func TestString(t *testing.T) {
	s := FromIndices(10, 1, 3)
	if got := s.String(); got != "{1, 3}" {
		t.Errorf("String() = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
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
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		return ab.Equal(ba)
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
		added := a.UnionWith(b)
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
		c := a.Clone()
		if c.UnionWith(a) != 0 {
			return false
		}
		return c.Equal(a)
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
		inter := a.Clone()
		inter.IntersectWith(b)
		diff := a.Clone()
		diff.DifferenceWith(b)
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
		u := a.Clone()
		u.UnionWith(b)
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
	New(10).UnionWith(New(20))
}
