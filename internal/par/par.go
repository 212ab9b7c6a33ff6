// Package par contains the small data-parallel helper the simulators use:
// a chunked parallel-for over node ranges. All parallelism in this module
// flows through it, and all randomness comes from per-node streams, so
// simulation results are identical for any GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
)

// minChunk is the smallest range worth shipping to another goroutine;
// below it the dispatch overhead dominates the word-parallel set unions.
const minChunk = 256

// For runs fn over disjoint subranges [lo, hi) covering [0, n), using up to
// GOMAXPROCS goroutines. fn must only touch state owned by indices in its
// range (the simulators shard by receiving node). For small n it runs
// inline.
func For(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > (n+minChunk-1)/minChunk {
		workers = (n + minChunk - 1) / minChunk
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
