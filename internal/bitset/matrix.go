package bitset

import "math/bits"

// Matrix is a dense rows×width bit matrix backed by a single word slice.
// Row(i) returns a Set view sharing the matrix storage, so row unions are
// word-parallel with no per-row allocation. The gossiping simulators use one
// row per node (row v = the set of original messages known to node v).
type Matrix struct {
	words []uint64
	wpr   int // words per row
	width int
}

// NewMatrix allocates a rows×width all-zero bit matrix.
func NewMatrix(rows, width int) *Matrix {
	if rows < 0 || width < 0 {
		panic("bitset: negative matrix dimension")
	}
	wpr := wordsFor(width)
	return &Matrix{
		words: make([]uint64, rows*wpr),
		wpr:   wpr,
		width: width,
	}
}

// Row returns a Set view of row i. Mutating the view mutates the matrix.
func (m *Matrix) Row(i int) *Set {
	return &Set{words: m.words[i*m.wpr : (i+1)*m.wpr : (i+1)*m.wpr], n: m.width}
}

// CopyRowsFrom copies rows [lo, hi) from o into m. Used to parallelize the
// per-round snapshot across worker goroutines.
func (m *Matrix) CopyRowsFrom(o *Matrix, lo, hi int) {
	if m.wpr != o.wpr {
		panic("bitset: matrix dimension mismatch in CopyRowsFrom")
	}
	copy(m.words[lo*m.wpr:hi*m.wpr], o.words[lo*o.wpr:hi*o.wpr])
}

// UnionRow ors src's row j into m's row i and returns the number of newly
// set bits. m and src may be the same matrix (i != j required in that case
// for a meaningful result, though i == j is harmless and returns 0). It
// stores only the words that change, which suits rows of a word or two.
func (m *Matrix) UnionRow(i int, src *Matrix, j int) int {
	dst := m.words[i*m.wpr : (i+1)*m.wpr]
	s := src.words[j*src.wpr : (j+1)*src.wpr]
	added := 0
	for k := range dst {
		old := dst[k]
		nw := old | s[k]
		if nw != old {
			added += popcount(nw &^ old)
			dst[k] = nw
		}
	}
	return added
}

// SetRowUnion overwrites m's row i with a's row j | b's row k and returns
// the number of bits b's row adds to a's: a copy of a's row and a UnionRow
// from b's in one pass, or, with a's row the destination itself, a UnionRow
// for long rows. The store is unconditional: on rows that are about half
// full a "did this word change" branch mispredicts and costs more than the
// store it saves.
func (m *Matrix) SetRowUnion(i int, a *Matrix, j int, b *Matrix, k int) int {
	dst := m.words[i*m.wpr : (i+1)*m.wpr]
	x, y := a.words[j*a.wpr:][:len(dst)], b.words[k*b.wpr:][:len(dst)]
	added := 0
	for w := range dst {
		old := x[w]
		nw := old | y[w]
		dst[w] = nw
		added += popcount(nw &^ old)
	}
	return added
}

// UnionSet ors the standalone set s into row i and returns newly set bits.
func (m *Matrix) UnionSet(i int, s *Set) int {
	row := m.Row(i)
	return row.UnionWith(s)
}

func popcount(w uint64) int { return bits.OnesCount64(w) }
