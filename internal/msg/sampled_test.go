package msg

import (
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gossip/internal/graph"
	"gossip/internal/par"
	"gossip/internal/xrand"
)

// sampledKnown returns how many sampled messages v knows.
func sampledKnown(s *Sampled, v int32) int { return s.cur.Row(int(v)).Count() }

// sampledInformedOf returns how many nodes know sampled message id, or -1
// if id is not tracked.
func sampledInformedOf(s *Sampled, id int32) int {
	c, ok := slices.BinarySearch(s.ids, id)
	if !ok {
		return -1
	}
	cnt := 0
	for v := 0; v < s.n; v++ {
		if s.cur.Row(v).Contains(c) {
			cnt++
		}
	}
	return cnt
}

func TestSampledInitialState(t *testing.T) {
	s := NewSampled(100, 10, 1)
	if len(s.ids) != 10 {
		t.Fatalf("K = %d", len(s.ids))
	}
	if s.total != 10 {
		t.Errorf("TotalKnown = %d", s.total)
	}
	for _, id := range s.ids {
		if sampledKnown(s, id) < 1 {
			t.Errorf("origin %d does not know its own message", id)
		}
		if got := sampledInformedOf(s, id); got != 1 {
			t.Errorf("InformedOf(%d) = %d", id, got)
		}
	}
}

func TestSampledIDsSortedDistinct(t *testing.T) {
	s := NewSampled(50, 20, 2)
	ids := s.ids
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not ascending/distinct: %v", ids)
		}
	}
}

func TestSampledClampsK(t *testing.T) {
	s := NewSampled(5, 99, 3)
	if len(s.ids) != 5 {
		t.Errorf("K = %d, want clamp to 5", len(s.ids))
	}
}

func TestSampledTransferSemantics(t *testing.T) {
	s := NewSampled(4, 4, 4) // K = n: every message tracked
	// Chain within one round must not leak (snapshot semantics).
	s.BeginRound()
	s.Transfer(0, 1)
	s.Transfer(1, 2)
	s.EndRound()
	if sampledInformedOf(s, 0) != 2 { // at nodes 0 and 1 only
		t.Errorf("InformedOf(0) = %d", sampledInformedOf(s, 0))
	}
	if sampledInformedOf(s, 3) != 1 {
		t.Errorf("InformedOf(3) = %d", sampledInformedOf(s, 3))
	}
}

func TestSampledUntrackedID(t *testing.T) {
	s := NewSampled(100, 2, 5)
	tracked := map[int32]bool{}
	for _, id := range s.ids {
		tracked[id] = true
	}
	for v := int32(0); v < 100; v++ {
		if !tracked[v] {
			if sampledInformedOf(s, v) != -1 {
				t.Errorf("untracked id %d reported %d", v, sampledInformedOf(s, v))
			}
			return
		}
	}
}

func TestSampledMatchesFullWhenKEqualsN(t *testing.T) {
	// With K = n, Sampled and Full must agree on totals and completion
	// under the same transfer sequence.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(30)
		full := NewFull(n)
		samp := NewSampled(n, n, seed)
		for r := 0; r < 4; r++ {
			full.BeginRound()
			samp.BeginRound()
			for k := 0; k < n; k++ {
				src, dst := int32(rng.Intn(n)), int32(rng.Intn(n))
				full.Transfer(src, dst)
				samp.Transfer(src, dst)
			}
			full.EndRound()
			samp.EndRound()
			if totalKnown(full) != samp.total {
				return false
			}
		}
		return full.Complete() == samp.Complete()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSampledCompleteDetection(t *testing.T) {
	s := NewSampled(2, 2, 6)
	s.BeginRound()
	s.Transfer(0, 1)
	s.Transfer(1, 0)
	s.EndRound()
	if !s.Complete() {
		t.Error("2-node exchange should complete the sample")
	}
}

func TestSampledRoundDiscipline(t *testing.T) {
	s := NewSampled(4, 2, 7)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("Transfer outside round", func() { s.Transfer(0, 1) })
	mustPanic("EndRound without Begin", func() { s.EndRound() })
	s.BeginRound()
	mustPanic("nested BeginRound", func() { s.BeginRound() })
	s.EndRound()
}

// TestSampledCountMatchesRecount runs push–pull to completion on G(n, p),
// delivering every transfer into a receiver from the par.For worker that
// owns it, and requires after every round that the pair count equal a
// recount of the matrix and the k origins plus the sum of Transfer's
// returns. Complete therefore first holds at the step at which the
// transfers' own count reaches n·k.
func TestSampledCountMatchesRecount(t *testing.T) {
	const n, k = 3000, 40
	g := graph.ErdosRenyi(n, graph.PLogSquared(n), xrand.New(3))
	s := NewSampled(n, k, 4)
	rngs := make([]xrand.RNG, n)
	for v := range rngs {
		rngs[v].Reseed(uint64(v))
	}
	out := make([]int32, n)
	callers := make([][]int32, n)
	counted := int64(k)
	for step := 1; !s.Complete(); step++ {
		if step > 100 {
			t.Fatal("push–pull did not complete in 100 steps")
		}
		for v := range callers {
			callers[v] = callers[v][:0]
		}
		for v := range out {
			out[v] = g.RandomNeighbor(int32(v), &rngs[v])
			callers[out[v]] = append(callers[out[v]], int32(v))
		}
		var added atomic.Int64
		s.BeginRound()
		par.For(n, func(lo, hi int) {
			sum := 0
			for v := lo; v < hi; v++ {
				for _, u := range callers[v] { // pushes into v
					sum += s.Transfer(u, int32(v))
				}
				sum += s.Transfer(out[v], int32(v)) // v's pull
			}
			added.Add(int64(sum))
		})
		s.EndRound()
		counted += added.Load()
		recount := int64(0)
		for v := 0; v < n; v++ {
			recount += int64(sampledKnown(s, int32(v)))
		}
		if s.total != recount || s.total != counted {
			t.Fatalf("step %d: pair count %d, recount %d, Transfer's returns %d", step, s.total, recount, counted)
		}
		if s.Complete() != (counted == n*k) {
			t.Fatalf("step %d: Complete() = %v with %d of %d pairs counted", step, s.Complete(), counted, n*k)
		}
	}
}
