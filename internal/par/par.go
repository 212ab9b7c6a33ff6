// Package par contains the small data-parallel helper the simulators use:
// a chunked parallel-for over node ranges. All parallelism in this module
// flows through it, and all randomness comes from per-node streams, so
// simulation results are identical for any GOMAXPROCS.
//
// For runs on a pool of up to GOMAXPROCS−1 helper goroutines, started on
// first use and kept for the life of the process. A waiting goroutine,
// helper or caller, polls a fixed number of times, yielding its P at each
// poll, and then parks: a run of short phases (a synchronous step is five)
// finds the helpers awake, and a long pause costs no CPU. The bound is a
// count because nothing in this module reads the clock. A call whose
// chunks do nothing costs 0.5–0.6 µs at n = 4 096 on a 2-core Xeon.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// minChunk is the smallest range worth shipping to another goroutine;
	// below it the dispatch overhead dominates the word-parallel set unions.
	minChunk = 256
	spins    = 512 // polls before a waiting goroutine parks
)

// pool serves one For at a time, the caller that set busy. word packs the
// job's generation (high 32 bits), its chunk count and its next unclaimed
// chunk (16 bits each). A chunk is claimed by CAS on word, so a helper
// reads fn, n and width only under a claim, which holds them until pending
// reaches 0. Helpers sleep on jobs and the caller on done, both under mu.
var pool struct {
	busy       atomic.Bool
	word       atomic.Uint64
	pending    atomic.Int64 // chunks not yet finished
	panicked   atomic.Pointer[any]
	mu         sync.Mutex
	jobs, done sync.Cond
	helpers    int
	fn         func(lo, hi int)
	n, width   int
}

func init() { pool.jobs.L, pool.done.L = &pool.mu, &pool.mu }

// For runs fn over disjoint subranges [lo, hi) covering [0, n), one
// contiguous chunk per available P: the caller runs the first, helpers the
// rest, and the caller also takes any chunk no helper has claimed yet. fn
// must only touch state owned by indices in its range (the simulators
// shard by receiving node). For runs fn(0, n) inline when n is small or
// the pool is serving another For: a concurrent call or one nested in fn.
// A panic in any chunk is re-raised in the caller once every chunk has
// returned, and the pool stays usable; so it does after a chunk calls
// runtime.Goexit. The pool drops fn before returning.
func For(n int, fn func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), (n+minChunk-1)/minChunk)
	if workers <= 1 || !pool.busy.CompareAndSwap(false, true) {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	width := (n + workers - 1) / workers
	chunks := (n + width - 1) / width
	gen := uint32(pool.word.Load()>>32) + 1
	for ; pool.helpers < chunks-1; pool.helpers++ {
		go help(pool.helpers, gen-1)
	}
	pool.fn, pool.n, pool.width = fn, n, width
	pool.pending.Store(int64(chunks))
	pool.mu.Lock()
	pool.word.Store(uint64(gen)<<32 | uint64(chunks)<<16 | 1)
	pool.jobs.Broadcast()
	pool.mu.Unlock()
	run(0, -1)
	work(gen, -1)
	release()
}

// release waits for the job's outstanding chunks, drops fn, frees the pool
// and re-raises a chunk's panic.
func release() {
	wait(&pool.done, func() bool { return pool.pending.Load() == 0 })
	pool.fn = nil
	p := pool.panicked.Swap(nil)
	pool.busy.Store(false)
	if p != nil {
		panic(*p)
	}
}

// help is helper id's life: wait for a job newer than seen, then claim
// its chunks if the job has work for this many helpers.
func help(id int, seen uint32) {
	for {
		var w uint64
		wait(&pool.jobs, func() bool { w = pool.word.Load(); return uint32(w>>32) != seen })
		if seen = uint32(w >> 32); id < int(w>>16&0xffff)-1 {
			work(seen, id)
		}
	}
}

// wait returns once ready holds: it polls spins times, yielding the P in
// between, and then sleeps on c until a wakeup finds ready true.
func wait(c *sync.Cond, ready func() bool) {
	for i := 0; i < spins; i++ {
		if ready() {
			return
		}
		runtime.Gosched()
	}
	pool.mu.Lock()
	for !ready() {
		c.Wait()
	}
	pool.mu.Unlock()
}

// work runs unclaimed chunks of job gen until none is left; id is the
// helper's, or -1 for the caller.
func work(gen uint32, id int) {
	for {
		w := pool.word.Load()
		i := int(w & 0xffff)
		if uint32(w>>32) != gen || i >= int(w>>16&0xffff) {
			return
		}
		if pool.word.CompareAndSwap(w, w+1) {
			run(i, id)
		}
	}
}

// run runs chunk i for helper id (-1: the caller), keeps its panic for
// the caller and counts it done; the chunk that finishes the job wakes a
// sleeping caller. A chunk that calls runtime.Goexit (t.FailNow does) ends
// its goroutine: the caller's job is then released here, and a helper is
// replaced.
func run(i, id int) {
	returned := false
	defer func() {
		r := recover()
		exited := !returned && r == nil // runtime.Goexit
		if exited && id >= 0 {
			// Read while this chunk is pending, so the job is still
			// this one.
			go help(id, uint32(pool.word.Load()>>32))
		}
		if r != nil {
			p := new(any)
			*p = r
			pool.panicked.CompareAndSwap(nil, p)
		}
		if pool.pending.Add(-1) == 0 {
			pool.mu.Lock()
			pool.done.Signal()
			pool.mu.Unlock()
		}
		if exited && id < 0 {
			release()
		}
	}()
	lo := i * pool.width
	pool.fn(lo, min(lo+pool.width, pool.n))
	returned = true
}
