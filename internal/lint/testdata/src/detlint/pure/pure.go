// Package pure is a deterministic fixture package that imports only
// another deterministic fixture package and the standard library: the
// import rule stays silent on it.
package pure

import (
	"sort"

	"detlint/mix"
)

// Mix combines two words.
func Mix(a, b uint64) uint64 { return mix.Mix(a, b) }

// Sorted returns xs sorted.
func Sorted(xs []int) []int {
	sort.Ints(xs)
	return xs
}
