package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 257, 10000} {
		seen := make([]int32, n)
		For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForRangesDisjointAndOrdered(t *testing.T) {
	var mu atomic.Int64
	For(5000, func(lo, hi int) {
		if lo >= hi {
			mu.Add(1)
		}
	})
	if mu.Load() != 0 {
		t.Error("For dispatched empty ranges")
	}
}
