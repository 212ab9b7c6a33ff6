package msg

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"gossip/internal/bitset"
	"gossip/internal/xrand"
)

func TestNewFullInitialState(t *testing.T) {
	f := NewFull(5)
	for v := int32(0); v < 5; v++ {
		if f.Known(v) != 1 || !f.Row(v).Contains(int(v)) {
			t.Errorf("node %d initial set = %v", v, f.Row(v))
		}
	}
	if f.TotalKnown() != 5 {
		t.Errorf("TotalKnown = %d", f.TotalKnown())
	}
	if f.Complete() {
		t.Error("fresh tracker reports complete")
	}
	if !f.CheckTotal() {
		t.Error("counter out of sync")
	}
}

func TestTransferSnapshotSemantics(t *testing.T) {
	// Chain 0 -> 1 -> 2 in ONE round: node 2 must NOT receive message 0,
	// because 1's packet is its round-start set.
	f := NewFull(3)
	f.BeginRound()
	f.Transfer(0, 1)
	f.Transfer(1, 2)
	f.EndRound()
	if !f.Row(1).Contains(0) {
		t.Error("1 should know 0 after the round")
	}
	if f.Row(2).Contains(0) {
		t.Error("snapshot semantics violated: 2 learned 0 within one round")
	}
	if !f.Row(2).Contains(1) {
		t.Error("2 should know 1")
	}
	// Next round the chain completes.
	f.BeginRound()
	f.Transfer(1, 2)
	f.EndRound()
	if !f.Row(2).Contains(0) {
		t.Error("2 should know 0 after the second round")
	}
}

func TestTransferCountsNewOnly(t *testing.T) {
	f := NewFull(3)
	f.BeginRound()
	if added := f.Transfer(0, 1); added != 1 {
		t.Errorf("first transfer added %d", added)
	}
	if added := f.Transfer(0, 1); added != 0 {
		t.Errorf("repeat transfer added %d", added)
	}
	f.EndRound()
	if f.TotalKnown() != 4 {
		t.Errorf("TotalKnown = %d", f.TotalKnown())
	}
	if !f.CheckTotal() {
		t.Error("counter out of sync")
	}
}

func TestSelfTransferNoop(t *testing.T) {
	f := NewFull(2)
	f.BeginRound()
	if added := f.Transfer(1, 1); added != 0 {
		t.Errorf("self transfer added %d", added)
	}
	f.EndRound()
}

func TestCompleteDetection(t *testing.T) {
	f := NewFull(2)
	f.BeginRound()
	f.Transfer(0, 1)
	f.Transfer(1, 0)
	f.EndRound()
	if !f.Complete() {
		t.Error("2-node exchange should complete")
	}
	if f.TotalKnown() != 4 {
		t.Errorf("TotalKnown = %d", f.TotalKnown())
	}
}

func TestMergeNowImmediate(t *testing.T) {
	f := NewFull(3)
	payload := bitset.FromIndices(3, 2)
	f.MergeNow(payload, 0)
	if !f.Row(0).Contains(2) {
		t.Error("MergeNow did not land immediately")
	}
	if f.TotalKnown() != 4 {
		t.Errorf("TotalKnown = %d", f.TotalKnown())
	}
}

func TestRoundDisciplinePanics(t *testing.T) {
	f := NewFull(2)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("Transfer outside round", func() { f.Transfer(0, 1) })
	mustPanic("EndRound without Begin", func() { f.EndRound() })
	f.BeginRound()
	mustPanic("nested BeginRound", func() { f.BeginRound() })
	mustPanic("MergeNow inside round", func() { f.MergeNow(bitset.New(2), 0) })
	f.EndRound()
}

func TestInformedOf(t *testing.T) {
	f := NewFull(3)
	f.BeginRound()
	f.Transfer(2, 0)
	f.Transfer(2, 1)
	f.EndRound()
	if got := f.InformedOf(2); got != 3 {
		t.Errorf("InformedOf(2) = %d", got)
	}
	if got := f.InformedOf(0); got != 1 {
		t.Errorf("InformedOf(0) = %d", got)
	}
}

func TestQuickTotalMatchesRecount(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(40)
		tr := NewFull(n)
		rounds := 1 + rng.Intn(5)
		for r := 0; r < rounds; r++ {
			tr.BeginRound()
			for k := 0; k < n; k++ {
				tr.Transfer(int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
			tr.EndRound()
		}
		return tr.CheckTotal()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMonotoneGrowth(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(30)
		tr := NewFull(n)
		prev := tr.TotalKnown()
		for r := 0; r < 4; r++ {
			tr.BeginRound()
			for k := 0; k < n/2; k++ {
				tr.Transfer(int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
			tr.EndRound()
			if tr.TotalKnown() < prev {
				return false
			}
			prev = tr.TotalKnown()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refFull is Full as it stood before the per-row double buffer: BeginRound
// copies the whole matrix into next, every Transfer is a UnionRow into it,
// EndRound swaps the two. It is the reference the live implementation must
// match call for call.
type refFull struct {
	n         int
	cur, next *bitset.Matrix
	total     int64
}

func newRefFull(n int) *refFull {
	f := &refFull{n: n, cur: bitset.NewMatrix(n, n), next: bitset.NewMatrix(n, n), total: int64(n)}
	for v := 0; v < n; v++ {
		f.cur.Row(v).Add(v)
	}
	return f
}

func (f *refFull) BeginRound() { f.next.CopyRowsFrom(f.cur, 0, f.n) }
func (f *refFull) EndRound()   { f.cur, f.next = f.next, f.cur }

func (f *refFull) Transfer(src, dst int32) int {
	added := f.next.UnionRow(int(dst), f.cur, int(src))
	f.total += int64(added)
	return added
}

func (f *refFull) MergeNow(s *bitset.Set, dst int32) int {
	added := f.cur.UnionSet(int(dst), s)
	f.total += int64(added)
	return added
}

func (f *refFull) Complete() bool { return f.total == int64(f.n)*int64(f.n) }

// assertSameState compares everything Full exposes between rounds with the
// reference.
func assertSameState(t *testing.T, f *Full, ref *refFull, when string) {
	t.Helper()
	var refBits int64
	for v := 0; v < ref.n; v++ {
		want := ref.cur.Row(v)
		if !f.Row(int32(v)).Equal(want) {
			t.Fatalf("%s: Row(%d) = %v, want %v", when, v, f.Row(int32(v)), want)
		}
		if got := f.Known(int32(v)); got != want.Count() {
			t.Fatalf("%s: Known(%d) = %d, want %d", when, v, got, want.Count())
		}
		refBits += int64(want.Count())
	}
	if f.TotalKnown() != ref.total || refBits != ref.total {
		t.Fatalf("%s: TotalKnown = %d, reference %d", when, f.TotalKnown(), ref.total)
	}
	if f.Complete() != ref.Complete() {
		t.Fatalf("%s: Complete = %v, reference %v", when, f.Complete(), ref.Complete())
	}
	if !f.CheckTotal() {
		t.Fatalf("%s: CheckTotal failed", when)
	}
}

// TestFullMatchesReference drives Full and refFull with the same seeded
// scripts — repeated dst, self-transfers, idle rounds, MergeNow between
// rounds — to saturation and two rounds past it.
func TestFullMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 200, 1000} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := xrand.New(seed*1000 + uint64(n))
			f, ref := NewFull(n), newRefFull(n)
			assertSameState(t, f, ref, "fresh")
			pick := func() int32 { return int32(rng.Intn(n)) }
			for round, past := 1, 0; past < 2; round++ {
				if round > 400 {
					t.Fatalf("n=%d seed=%d: not saturated after %d rounds", n, seed, round)
				}
				if ref.Complete() {
					past++
				}
				when := fmt.Sprintf("n=%d seed=%d round %d", n, seed, round)
				if rng.Intn(4) == 0 {
					s, dst := bitset.New(n), pick()
					if rng.Intn(2) == 0 {
						s.CopyFrom(ref.cur.Row(int(pick())))
					}
					s.Add(int(pick()))
					if got, want := f.MergeNow(s, dst), ref.MergeNow(s, dst); got != want {
						t.Fatalf("%s: MergeNow(·, %d) = %d, want %d", when, dst, got, want)
					}
					assertSameState(t, f, ref, when+" after MergeNow")
				}
				f.BeginRound()
				ref.BeginRound()
				calls := 0 // an idle round one time in eight
				if rng.Intn(8) != 0 {
					calls = 1 + rng.Intn(2*n)
				}
				hot := pick() // a receiver that is dialled again and again
				for c := 0; c < calls; c++ {
					src, dst := pick(), pick()
					switch rng.Intn(8) {
					case 0:
						dst = hot
					case 1:
						src = dst
					}
					if got, want := f.Transfer(src, dst), ref.Transfer(src, dst); got != want {
						t.Fatalf("%s: Transfer(%d, %d) = %d, want %d", when, src, dst, got, want)
					}
				}
				f.EndRound()
				ref.EndRound()
				assertSameState(t, f, ref, when)
			}
		}
	}
}

// TestFillKeepsTailClear hits the write-only fill (src full at round start)
// as the first and as a later transfer into a row whose last word is
// partial: a set tail bit would show up in Count.
func TestFillKeepsTailClear(t *testing.T) {
	const n = 65
	f := NewFull(n)
	all := bitset.New(n)
	all.Fill()
	f.MergeNow(all, 0)
	f.BeginRound()
	if added := f.Transfer(0, 1); added != n-1 {
		t.Errorf("fill as first transfer added %d, want %d", added, n-1)
	}
	if added := f.Transfer(3, 2); added != 1 {
		t.Errorf("Transfer(3, 2) added %d, want 1", added)
	}
	if added := f.Transfer(0, 2); added != n-2 {
		t.Errorf("fill as second transfer added %d, want %d", added, n-2)
	}
	if added := f.Transfer(4, 2); added != 0 {
		t.Errorf("transfer into a row filled this round added %d", added)
	}
	f.EndRound()
	for _, v := range []int32{0, 1, 2} {
		if c := f.Row(v).Count(); c != n || f.Known(v) != n {
			t.Errorf("row %d: Count = %d, Known = %d, want %d", v, c, f.Known(v), n)
		}
	}
	if f.TotalKnown() != 3*n+(n-3) || !f.CheckTotal() {
		t.Errorf("TotalKnown = %d, CheckTotal = %v", f.TotalKnown(), f.CheckTotal())
	}
}

// TestConcurrentRoundMatchesReference splits each round's transfers by
// receiver over goroutines, the way par.For workers and phone.Async call
// the tracker; run it under -race.
func TestConcurrentRoundMatchesReference(t *testing.T) {
	const n, workers = 200, 4
	rng := xrand.New(7)
	f, ref := NewFull(n), newRefFull(n)
	for round := 1; !ref.Complete(); round++ {
		if round > 200 {
			t.Fatal("not saturated after 200 rounds")
		}
		type call struct{ src, dst int32 }
		var script [workers][]call
		for c := 0; c < 2*n; c++ {
			cl := call{int32(rng.Intn(n)), int32(rng.Intn(n))}
			script[int(cl.dst)%workers] = append(script[int(cl.dst)%workers], cl)
		}
		var want, got [workers]int
		ref.BeginRound()
		for w, calls := range script {
			for _, cl := range calls {
				want[w] += ref.Transfer(cl.src, cl.dst)
			}
		}
		ref.EndRound()
		f.BeginRound()
		var wg sync.WaitGroup
		for w := range script {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, cl := range script[w] {
					got[w] += f.Transfer(cl.src, cl.dst)
				}
			}()
		}
		wg.Wait()
		f.EndRound()
		if got != want {
			t.Fatalf("round %d: added per worker %v, want %v", round, got, want)
		}
		assertSameState(t, f, ref, fmt.Sprintf("round %d", round))
	}
}

func TestRoundDoesNotAllocate(t *testing.T) {
	const n = 256
	f := NewFull(n)
	r := 0
	// Doubling schedule plus a second caller per row: the runs pass through
	// the fused first write, the union, the fill and the saturated return.
	allocs := testing.AllocsPerRun(12, func() {
		f.BeginRound()
		for v := 0; v < n; v++ {
			f.Transfer(int32((v+1<<(r%8))%n), int32(v))
			f.Transfer(int32((v+3)%n), int32(v))
		}
		f.EndRound()
		r++
	})
	if allocs != 0 {
		t.Errorf("a round allocated %v times", allocs)
	}
	if !f.Complete() || !f.CheckTotal() {
		t.Errorf("schedule did not saturate: TotalKnown = %d", f.TotalKnown())
	}
}
