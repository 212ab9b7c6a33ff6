package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixRowViews(t *testing.T) {
	m := NewMatrix(4, 100, nil)
	m.Row(2).Add(17)
	if !m.Row(2).Contains(17) {
		t.Error("row view lost a bit")
	}
	if m.Row(1).Contains(17) || m.Row(3).Contains(17) {
		t.Error("bit leaked into a neighboring row")
	}
	if m.Row(2).Count() != 1 {
		t.Errorf("row 2 holds %d bits, want 1", m.Row(2).Count())
	}
}

func TestMatrixUnionRow(t *testing.T) {
	m := NewMatrix(3, 128, nil)
	m.Row(0).Add(1)
	m.Row(0).Add(64)
	m.Row(1).Add(64)
	added := m.UnionRow(1, m, 0)
	if added != 1 {
		t.Errorf("UnionRow added = %d, want 1", added)
	}
	if !m.Row(1).Contains(1) || !m.Row(1).Contains(64) {
		t.Error("UnionRow result incomplete")
	}
	// Self-union is a no-op.
	if added := m.UnionRow(1, m, 1); added != 0 {
		t.Errorf("self UnionRow added %d", added)
	}
}

func TestMatrixUnionRowAcrossMatrices(t *testing.T) {
	a := NewMatrix(2, 90, nil)
	b := NewMatrix(2, 90, nil)
	a.Row(0).Add(3)
	b.Row(1).Add(89)
	if added := b.UnionRow(1, a, 0); added != 1 {
		t.Errorf("cross-matrix UnionRow added = %d, want 1", added)
	}
	if !b.Row(1).Contains(3) || !b.Row(1).Contains(89) {
		t.Error("cross-matrix UnionRow result wrong")
	}
}

func TestMatrixCopyRows(t *testing.T) {
	a := NewMatrix(4, 100, nil)
	for i := 0; i < 4; i++ {
		a.Row(i).Add(i)
	}
	b := NewMatrix(4, 100, nil)
	b.CopyRowsFrom(a, 1, 3)
	if b.Row(0).Count() != 0 || b.Row(3).Count() != 0 {
		t.Error("CopyRowsFrom copied rows outside range")
	}
	if !b.Row(1).Contains(1) || !b.Row(2).Contains(2) {
		t.Error("CopyRowsFrom missed rows inside range")
	}
}

func TestUnionBoth(t *testing.T) {
	a, b := fromIndices(130, 10, 70), fromIndices(130, 70, 129)
	if added := a.UnionBoth(b); added != 1 {
		t.Errorf("UnionBoth added = %d, want 1", added)
	}
	want := fromIndices(130, 10, 70, 129)
	if !equal(a, want) || !equal(b, want) {
		t.Errorf("UnionBoth left %v and %v, want both %v", members(a), members(b), members(want))
	}
}

func TestQuickMatrixUnionRowMatchesSetUnion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(200)
		m := NewMatrix(2, width, nil)
		for j := 0; j < width; j++ {
			if r.Intn(3) == 0 {
				m.Row(0).Add(j)
			}
			if r.Intn(3) == 0 {
				m.Row(1).Add(j)
			}
		}
		want := clone(m.Row(1))
		wantAdded := unionWith(want, m.Row(0))
		gotAdded := m.UnionRow(1, m, 0)
		return gotAdded == wantAdded && equal(m.Row(1), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickMatrixSetRowUnionMatchesCopyThenUnion checks the k-way kernel
// against a copy of the base followed by one UnionRow per source, for
// k = 1…6 (up to three two-source passes), with the base a row of another
// matrix and with the base the destination row itself.
func TestQuickMatrixSetRowUnionMatchesCopyThenUnion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(200)
		a, b := NewMatrix(8, width, nil), NewMatrix(8, width, nil)
		for i := 0; i < 8; i++ {
			for j := 0; j < width; j++ {
				if r.Intn(4) == 0 {
					a.Row(i).Add(j)
				}
				b.Row(i).Add(j) // stale contents the kernel must overwrite
			}
		}
		for k := 1; k <= 6; k++ {
			dst, base := r.Intn(8), a.Row(r.Intn(8))
			want := NewMatrix(1, width, nil)
			want.Row(0).CopyFrom(base)
			if k%2 == 0 { // the destination row is the base
				b.Row(dst).CopyFrom(base)
				base = b.Row(dst)
			}
			wantAdded := 0
			srcs := make([]*Set, k)
			for i := range srcs {
				j := r.Intn(8)
				srcs[i] = a.Row(j)
				wantAdded += want.UnionRow(0, a, j)
			}
			if got := b.SetRowUnion(dst, base, srcs...); got != wantAdded || !equal(b.Row(dst), want.Row(0)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
