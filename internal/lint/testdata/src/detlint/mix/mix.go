// Package mix is a deterministic fixture package that imports only the
// standard library: the import rule stays silent on it.
package mix

import "math/bits"

// Mix combines two words.
func Mix(a, b uint64) uint64 {
	return bits.RotateLeft64(a*0x9e3779b97f4a7c15, 17) ^ b
}
