package msg

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"gossip/internal/bitset"
	"gossip/internal/xrand"
)

// drainSpares empties the spare list, so that a test does not depend on
// what an earlier one released.
func drainSpares() {
	spares.Lock()
	spares.pairs = nil
	spares.Unlock()
}

// storageOf returns the first word of each of f's matrices, which names
// the storage they sit in.
func storageOf(f *Full) [2]*uint64 {
	return [2]*uint64{&f.mat[0].Storage()[:1][0], &f.mat[1].Storage()[:1][0]}
}

// work drives a and b through the same seeded rounds: walk-token meets
// between rounds, and transfers with mid-round settles inside them. A few
// sparse rounds leave most rows short of full, where stale bits would show.
func work(a, b *Full, n int, seed uint64) {
	rng := xrand.New(seed)
	pick := func() int32 { return int32(rng.Intn(n)) }
	for round := 0; round < 4; round++ {
		tokA, tokB, v := bitset.New(n), bitset.New(n), pick()
		for range 3 {
			m := int(pick())
			tokA.Add(m)
			tokB.Add(m)
		}
		a.Meet(tokA, v)
		b.Meet(tokB, v)
		a.BeginRound()
		b.BeginRound()
		for c := 0; c < n/2; c++ {
			src, dst := pick(), pick()
			a.Transfer(src, dst)
			b.Transfer(src, dst)
			if rng.Intn(8) == 0 {
				a.Settle(dst)
				b.Settle(dst)
			}
		}
		a.EndRound()
		b.EndRound()
	}
}

// sameState reports whether f and fresh hold equal rows, counts and
// completion.
func sameState(t *testing.T, f, fresh *Full, when string) {
	t.Helper()
	for v := int32(0); v < int32(f.n); v++ {
		if !sameBits(f.Row(v), fresh.Row(v)) {
			t.Fatalf("%s: row %d is %v after a Release, fresh %v", when, v, members(f.Row(v)), members(fresh.Row(v)))
		}
	}
	if !slices.Equal(f.have, fresh.have) || f.Complete() != fresh.Complete() || !checkTotal(f) {
		t.Fatalf("%s: counts or Complete differ from a fresh tracker's", when)
	}
}

// TestFullReleaseChainMatchesFresh builds a chain of trackers of growing
// and shrinking n, each released before the next is built and each worked
// by random rounds, and requires every row, every count and Complete to
// equal a fresh tracker's under the same work. reused says whether the
// previous tracker's storage was big enough, so that the new one must sit
// in it: a smaller n keeps the bigger storage's capacity.
func TestFullReleaseChainMatchesFresh(t *testing.T) {
	chain := []struct {
		n      int
		reused bool
	}{{1000, false}, {4096, false}, {300, true}, {4096, true}, {4097, false}}
	drainSpares()
	defer drainSpares()
	var prev [2]*uint64
	for i, c := range chain {
		f := NewFull(c.n)
		if reused := storageOf(f) == prev; reused != c.reused {
			t.Errorf("n=%d: built in the released tracker's storage = %v, want %v", c.n, reused, c.reused)
		}
		fresh := NewFull(c.n) // the list is empty again: NewFull took the one spare
		sameState(t, f, fresh, fmt.Sprintf("n=%d, new", c.n))
		work(f, fresh, c.n, uint64(i+1))
		sameState(t, f, fresh, fmt.Sprintf("n=%d, worked", c.n))
		prev = storageOf(f)
		f.Release()
	}
}

// TestFullReleasePoisons requires every method of a released tracker to
// panic, a second Release included.
func TestFullReleasePoisons(t *testing.T) {
	drainSpares()
	defer drainSpares()
	f := NewFull(64)
	f.Release()
	tok := bitset.New(64)
	for name, use := range map[string]func(){
		"BeginRound": f.BeginRound,
		"EndRound":   f.EndRound,
		"Transfer":   func() { f.Transfer(1, 0) },
		"Settle":     func() { f.Settle(0) },
		"Meet":       func() { f.Meet(tok, 0) },
		"Row":        func() { f.Row(0) },
		"Complete":   func() { f.Complete() },
		"Release":    f.Release,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released tracker did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestFullReleaseReusesStorage: a second NewFull(4096) after a Release
// allocates under a quarter of the first one's bytes, which are its two
// 2 MiB matrices.
func TestFullReleaseReusesStorage(t *testing.T) {
	const n = 4096
	drainSpares()
	defer drainSpares()
	build := func() (*Full, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f := NewFull(n)
		runtime.ReadMemStats(&after)
		return f, after.TotalAlloc - before.TotalAlloc
	}
	f, first := build()
	f.Release()
	_, second := build()
	if second >= first/4 {
		t.Fatalf("second NewFull after Release allocated %d B, first %d B: want < 1/4", second, first)
	}
}

// TestFullReleaseListBound: the list keeps at most GOMAXPROCS pairs, and
// NewFull takes the last one released.
func TestFullReleaseListBound(t *testing.T) {
	drainSpares()
	defer drainSpares()
	procs := runtime.GOMAXPROCS(0)
	fs := make([]*Full, procs+1)
	for i := range fs {
		fs[i] = NewFull(64 + i)
	}
	last := storageOf(fs[procs-1])
	for _, f := range fs {
		f.Release()
	}
	if len(spares.pairs) != procs {
		t.Fatalf("the list holds %d pairs after %d releases, want GOMAXPROCS = %d", len(spares.pairs), procs+1, procs)
	}
	if got := storageOf(NewFull(64)); got != last {
		t.Fatal("NewFull did not take the last pair the list kept")
	}
}

// TestFullReleaseConcurrent takes and releases trackers from several
// goroutines at once, as sweep workers do, each filling half of its rows
// before the Release: every tracker must start in the initial state, so
// no two live trackers share storage. Run it under -race.
func TestFullReleaseConcurrent(t *testing.T) {
	const n, workers, rounds = 130, 4, 25
	drainSpares()
	defer drainSpares()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				f := NewFull(n - w) // the spares fit every size but the largest
				for v := range int32(n - w) {
					if f.Row(v).Count() != 1 || !f.Row(v).Contains(int(v)) {
						t.Errorf("a new tracker's row %d is %v", v, members(f.Row(v)))
						return
					}
				}
				for v := int32(0); v < int32(n-w); v += 2 {
					tok := bitset.New(n - w)
					tok.Fill()
					f.Meet(tok, v)
				}
				f.Release()
			}
		}()
	}
	wg.Wait()
}
