package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixRowViews(t *testing.T) {
	m := NewMatrix(4, 100)
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
	m := NewMatrix(3, 128)
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
	a := NewMatrix(2, 90)
	b := NewMatrix(2, 90)
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
	a := NewMatrix(4, 100)
	for i := 0; i < 4; i++ {
		a.Row(i).Add(i)
	}
	b := NewMatrix(4, 100)
	b.CopyRowsFrom(a, 1, 3)
	if b.Row(0).Any() || b.Row(3).Any() {
		t.Error("CopyRowsFrom copied rows outside range")
	}
	if !b.Row(1).Contains(1) || !b.Row(2).Contains(2) {
		t.Error("CopyRowsFrom missed rows inside range")
	}
}

func TestMatrixUnionSet(t *testing.T) {
	m := NewMatrix(2, 50)
	s := FromIndices(50, 10, 20)
	if added := m.UnionSet(0, s); added != 2 {
		t.Errorf("UnionSet added = %d, want 2", added)
	}
	if !m.Row(0).Contains(10) || !m.Row(0).Contains(20) {
		t.Error("UnionSet result wrong")
	}
}

func TestQuickMatrixUnionRowMatchesSetUnion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(200)
		m := NewMatrix(2, width)
		for j := 0; j < width; j++ {
			if r.Intn(3) == 0 {
				m.Row(0).Add(j)
			}
			if r.Intn(3) == 0 {
				m.Row(1).Add(j)
			}
		}
		want := m.Row(1).Clone()
		wantAdded := want.UnionWith(m.Row(0))
		gotAdded := m.UnionRow(1, m, 0)
		return gotAdded == wantAdded && m.Row(1).Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMatrixSetRowUnionMatchesCopyThenUnion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(200)
		a, b := NewMatrix(2, width), NewMatrix(3, width)
		for j := 0; j < width; j++ {
			if r.Intn(3) == 0 {
				a.Row(0).Add(j)
			}
			if r.Intn(3) == 0 {
				a.Row(1).Add(j)
			}
			if r.Intn(3) == 0 {
				b.Row(2).Add(j)
			}
			b.Row(0).Add(j) // stale contents the kernel must overwrite
		}
		want := a.Row(1).Clone()
		wantAdded := want.UnionWith(b.Row(2))
		if got := b.SetRowUnion(0, a, 1, b, 2); got != wantAdded || !b.Row(0).Equal(want) || b.Row(1).Any() {
			return false
		}
		// With the destination as the first operand it is UnionRow.
		wantAdded = want.UnionWith(a.Row(0))
		return b.SetRowUnion(0, b, 0, a, 0) == wantAdded && b.Row(0).Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
