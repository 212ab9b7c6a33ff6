package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversRangeExactlyOnce also changes the pool's width between
// calls, up past the helpers already started and back down below them.
func TestForCoversRangeExactlyOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8, 2} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 7, 255, 256, 257, 4099, 10000} {
			cover(t, n)
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

// cover runs For over n and fails unless every index was visited once.
func cover(t *testing.T, n int) {
	t.Helper()
	seen := make([]int32, n)
	For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("n=%d GOMAXPROCS=%d: index %d visited %d times", n, runtime.GOMAXPROCS(0), i, c)
		}
	}
}

// TestForConcurrentCallers: while one caller holds the pool the others
// run inline; every caller still covers its own range exactly once.
func TestForConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 2000 + 37*g
			seen := make([]int32, n)
			For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Errorf("caller %d: index %d visited %d times", g, i, c)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestForNested(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const n = 4099
	seen := make([]int32, n)
	For(n, func(lo, hi int) {
		For(hi-lo, func(a, b int) {
			for i := lo + a; i < lo+b; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// recovered runs For(n, fn) and returns what its caller recovers.
func recovered(n int, fn func(lo, hi int)) (r any) {
	defer func() { r = recover() }()
	For(n, fn)
	return nil
}

// TestForPanicReachesCaller panics in the caller's own chunk and in a
// chunk a helper runs: the first chunk waits until the other has begun,
// so the caller cannot be the one running it. Both reach For's caller,
// and the pool serves the next call in full.
func TestForPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if r := recovered(4096, func(lo, hi int) {
		if lo == 0 {
			panic("caller's chunk")
		}
	}); r != "caller's chunk" {
		t.Errorf("caller's chunk: recovered %v", r)
	}
	cover(t, 4096)
	started := make(chan struct{})
	if r := recovered(4096, func(lo, hi int) {
		if lo == 0 {
			select { // a For gone inline never starts the other chunk
			case <-started:
			case <-time.After(5 * time.Second):
			}
			return
		}
		close(started)
		panic("helper's chunk")
	}); r != "helper's chunk" {
		t.Errorf("helper's chunk: recovered %v", r)
	}
	cover(t, 4096)
}

// bindFinalized returns a For body holding an object whose finalizer
// sets done.
func bindFinalized(done *atomic.Bool) func(lo, hi int) {
	obj := new([1 << 12]int32)
	runtime.SetFinalizer(obj, func(*[1 << 12]int32) { done.Store(true) })
	return func(lo, hi int) { obj[lo%len(obj)]++ }
}

// TestForDropsFn: the pool must not keep the last body, and with it the
// state the body reaches, alive after For returns.
func TestForDropsFn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var done atomic.Bool
	For(4096, bindFinalized(&done))
	for deadline := time.Now().Add(5 * time.Second); !done.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the last For body was not finalized")
		}
		runtime.GC()
	}
}

func TestForAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var sum atomic.Int64
	fn := func(lo, hi int) { sum.Add(int64(hi - lo)) }
	if allocs := testing.AllocsPerRun(100, func() { For(4096, fn) }); allocs != 0 {
		t.Errorf("For allocated %v times per call, want 0", allocs)
	}
}

// TestForHelpersBounded: the pool starts at most GOMAXPROCS−1 goroutines
// however many calls it serves.
func TestForHelpersBounded(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	base := runtime.NumGoroutine()
	fn := func(lo, hi int) {}
	for i := 0; i < 10000; i++ {
		For(4096, fn)
	}
	if grown := runtime.NumGoroutine() - base; grown > procs-1 {
		t.Errorf("goroutines grew by %d over 10000 calls, want at most GOMAXPROCS-1 = %d", grown, procs-1)
	}
}

// TestForAfterGoexit: a chunk that leaves through runtime.Goexit, as
// t.FailNow does, ends only its own goroutine. Whether that is the caller
// or a helper, the pool is free once every chunk has returned, and the
// next call hands a chunk to a helper again.
func TestForAfterGoexit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, who := range []string{"caller", "helper"} {
		exiting := 0
		if who == "helper" {
			exiting = 4096 / 2
		}
		onHelper := false
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			onHelper = helped(func(lo int) {
				if lo == exiting {
					runtime.Goexit()
				}
			})
		}()
		<-exited
		if who == "helper" && !onHelper {
			t.Fatal("chunk 1 did not run on a helper")
		}
		if pool.busy.Load() {
			t.Fatalf("the pool is still busy after a chunk on the %s called runtime.Goexit", who)
		}
		if !helped(func(int) {}) {
			t.Errorf("the call after a Goexit on the %s ran inline: no helper took a chunk", who)
		}
	}
}

// helped runs For(4096, …) at GOMAXPROCS 2, so in two chunks, and calls
// body(lo) in each. Chunk 0, the caller's, first waits up to 5 s for
// chunk 1 to start; helped reports whether it did, that is, whether a
// helper runs chunk 1.
func helped(body func(lo int)) bool {
	started := make(chan struct{})
	ok := false
	For(4096, func(lo, hi int) {
		if lo == 0 {
			select { // a For gone inline never starts the other chunk
			case <-started:
				ok = true
			case <-time.After(5 * time.Second):
			}
		} else {
			close(started)
		}
		body(lo)
	})
	return ok
}
