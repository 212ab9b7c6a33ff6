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

// NewMatrix returns a rows×width all-zero bit matrix. It clears and uses
// storage (an earlier matrix's Storage) where its capacity suffices, and
// allocates otherwise; nil storage means allocate.
func NewMatrix(rows, width int, storage []uint64) *Matrix {
	if rows < 0 || width < 0 {
		panic("bitset: negative matrix dimension")
	}
	wpr := wordsFor(width)
	var words []uint64
	if cap(storage) < rows*wpr {
		words = make([]uint64, rows*wpr)
	} else {
		words = storage[:rows*wpr]
		clear(words)
	}
	return &Matrix{words: words, wpr: wpr, width: width}
}

// Storage returns m's words, capacity whole, for a later NewMatrix. m
// must not be used once they are handed on.
func (m *Matrix) Storage() []uint64 { return m.words }

// Row returns a Set view of row i. Mutating the view mutates the matrix.
func (m *Matrix) Row(i int) *Set {
	return &Set{words: m.words[i*m.wpr : (i+1)*m.wpr : (i+1)*m.wpr], n: m.width}
}

// Count returns the number of set bits.
func (m *Matrix) Count() int { return (&Set{words: m.words}).Count() }

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

// SetRowUnion overwrites m's row i with base ∪ srcs[0] ∪ srcs[1] ∪ … and
// returns the number of bits srcs add to base; base may be row i itself,
// and srcs must not be empty. Sources are folded two per word pass, so the
// common one or two packets cost one read of each row, one store and one
// popcount per word, and a later pass reads row i back from cache. The
// store is unconditional: on rows that are about half full a "did this
// word change" branch mispredicts and costs more than the store it saves.
func (m *Matrix) SetRowUnion(i int, base *Set, srcs ...*Set) int {
	dst := m.words[i*m.wpr : (i+1)*m.wpr]
	from, added := base.words, 0
	for {
		x, a, b := from[:len(dst)], srcs[0].words[:len(dst)], srcs[min(1, len(srcs)-1)].words[:len(dst)]
		for w := range dst {
			old := x[w]
			nw := old | a[w] | b[w]
			dst[w] = nw
			added += popcount(nw &^ old)
		}
		if srcs = srcs[min(len(srcs), 2):]; len(srcs) == 0 {
			return added
		}
		from = dst
	}
}

func popcount(w uint64) int { return bits.OnesCount64(w) }
