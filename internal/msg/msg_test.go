package msg

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"gossip/internal/bitset"
	"gossip/internal/xrand"
)

// known returns |m_v| for the live state, as the row counts track it.
func known(f *Full, v int32) int { return int(f.have[v]) }

// totalKnown returns the informed (node, message) pairs of the live state:
// a round's packets count from its EndRound on.
func totalKnown(f *Full) int64 { return f.total.Load() }

// informedOf returns how many nodes know message m.
func informedOf(f *Full, m int32) int {
	c := 0
	for v := 0; v < f.n; v++ {
		if f.Row(int32(v)).Contains(int(m)) {
			c++
		}
	}
	return c
}

// checkTotal recounts every live row and reports whether the per-row
// counts and the incremental pair counter match (between rounds).
func checkTotal(f *Full) bool {
	var sum int64
	for v, have := range f.have {
		if f.Row(int32(v)).Count() != int(have) || f.now[v] != have {
			return false
		}
		sum += int64(have)
	}
	return sum == f.total.Load()
}

func TestNewFullInitialState(t *testing.T) {
	f := NewFull(5)
	for v := int32(0); v < 5; v++ {
		if known(f, v) != 1 || !f.Row(v).Contains(int(v)) {
			t.Errorf("node %d initial set = %v", v, members(f.Row(v)))
		}
	}
	if totalKnown(f) != 5 {
		t.Errorf("TotalKnown = %d", totalKnown(f))
	}
	if f.Complete() {
		t.Error("fresh tracker reports complete")
	}
	if !checkTotal(f) {
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
	f, ref := NewFull(3), newRefFull(3)
	f.BeginRound()
	ref.BeginRound()
	want := 0
	for range 2 {
		f.Transfer(0, 1)
		want += ref.Transfer(0, 1)
	}
	f.EndRound()
	ref.EndRound()
	if want != 1 || totalKnown(f) != 3+int64(want) {
		t.Errorf("a packet and its repeat added %d, reference %d", totalKnown(f)-3, want)
	}
	assertSameState(t, f, ref, "after the round")
}

func TestSelfTransferNoop(t *testing.T) {
	f := NewFull(2)
	f.BeginRound()
	f.Transfer(1, 1)
	f.EndRound()
	if totalKnown(f) != 2 || f.Row(1).Count() != 1 || !checkTotal(f) {
		t.Errorf("self transfer changed the state: TotalKnown = %d", totalKnown(f))
	}
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
	if totalKnown(f) != 4 {
		t.Errorf("TotalKnown = %d", totalKnown(f))
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
	mustPanic("Meet inside round", func() { f.Meet(bitset.New(2), 0) })
	f.EndRound()
}

func TestInformedOf(t *testing.T) {
	f := NewFull(3)
	f.BeginRound()
	f.Transfer(2, 0)
	f.Transfer(2, 1)
	f.EndRound()
	if got := informedOf(f, 2); got != 3 {
		t.Errorf("InformedOf(2) = %d", got)
	}
	if got := informedOf(f, 0); got != 1 {
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
		return checkTotal(tr)
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
		prev := totalKnown(tr)
		for r := 0; r < 4; r++ {
			tr.BeginRound()
			for k := 0; k < n/2; k++ {
				tr.Transfer(int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
			tr.EndRound()
			if totalKnown(tr) < prev {
				return false
			}
			prev = totalKnown(tr)
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
// match round for round: Full settles a row when its owner says so, so
// the counts surface per round, not per call.
type refFull struct {
	n         int
	cur, next *bitset.Matrix
	total     int64
}

func newRefFull(n int) *refFull {
	f := &refFull{n: n, cur: bitset.NewMatrix(n, n, nil), next: bitset.NewMatrix(n, n, nil), total: int64(n)}
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

// Meet is the two-pass walk arrival Full.Meet fuses: the token takes up
// the row, then the row takes up the token.
func (f *refFull) Meet(tok *bitset.Set, dst int32) int {
	orInto(tok, f.cur.Row(int(dst)))
	added := orInto(f.cur.Row(int(dst)), tok)
	f.total += int64(added)
	return added
}

// orInto adds o's members to s one bit at a time and returns how many
// were new to s.
func orInto(s, o *bitset.Set) int {
	added := 0
	for _, i := range members(o) {
		if !s.Contains(i) {
			s.Add(i)
			added++
		}
	}
	return added
}

// members lists s's set bits in increasing order.
func members(s *bitset.Set) []int {
	var idx []int
	for i := range s.Len() {
		if s.Contains(i) {
			idx = append(idx, i)
		}
	}
	return idx
}

// sameBits reports whether a and b have the same width and members.
func sameBits(a, b *bitset.Set) bool {
	return a.Len() == b.Len() && a.Count() == b.Count() && slices.Equal(members(a), members(b))
}

func (f *refFull) Complete() bool { return f.total == int64(f.n)*int64(f.n) }

// assertSameState compares everything Full exposes between rounds with the
// reference.
func assertSameState(t *testing.T, f *Full, ref *refFull, when string) {
	t.Helper()
	var refBits int64
	for v := 0; v < ref.n; v++ {
		want := ref.cur.Row(v)
		if !sameBits(f.Row(int32(v)), want) {
			t.Fatalf("%s: Row(%d) = %v, want %v", when, v, members(f.Row(int32(v))), members(want))
		}
		if got := known(f, int32(v)); got != want.Count() {
			t.Fatalf("%s: Known(%d) = %d, want %d", when, v, got, want.Count())
		}
		refBits += int64(want.Count())
	}
	if totalKnown(f) != ref.total || refBits != ref.total {
		t.Fatalf("%s: TotalKnown = %d, reference %d", when, totalKnown(f), ref.total)
	}
	if f.Complete() != ref.Complete() {
		t.Fatalf("%s: Complete = %v, reference %v", when, f.Complete(), ref.Complete())
	}
	if !checkTotal(f) {
		t.Fatalf("%s: CheckTotal failed", when)
	}
}

// meet runs Meet on Full and the reference with equal tokens and checks
// that the token and the row both end as their old union, and the count.
func meet(t *testing.T, f *Full, ref *refFull, tok *bitset.Set, v int32, when string) {
	t.Helper()
	union := bitset.New(tok.Len())
	union.CopyFrom(tok)
	orInto(union, f.Row(v))
	refTok := bitset.New(tok.Len())
	refTok.CopyFrom(tok)
	if got, want := f.Meet(tok, v), ref.Meet(refTok, v); got != want {
		t.Fatalf("%s: Meet(·, %d) = %d, want %d", when, v, got, want)
	}
	if !sameBits(tok, union) || !sameBits(f.Row(v), union) {
		t.Fatalf("%s: Meet(·, %d) left token %v and row %v, want both %v", when, v, members(tok), members(f.Row(v)), members(union))
	}
	assertSameState(t, f, ref, when+" after Meet")
}

// TestFullMatchesReference drives Full and refFull with the same seeded
// scripts — repeated dst, a hot receiver that overflows its pending slots,
// self-transfers, idle rounds, mid-round settles, Meet between rounds — to
// saturation and two rounds past it. A round's packets must add what the
// reference's transfers add, and every row must match after every round.
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
					tok := bitset.New(n)
					if rng.Intn(2) == 0 {
						tok.CopyFrom(ref.cur.Row(int(pick())))
					}
					tok.Add(int(pick()))
					meet(t, f, ref, tok, pick(), when)
				}
				before := totalKnown(f)
				f.BeginRound()
				ref.BeginRound()
				calls := 0 // an idle round one time in eight
				if rng.Intn(8) != 0 {
					calls = 1 + rng.Intn(2*n)
				}
				hot := pick() // a receiver that is dialled again and again
				want := 0
				for c := 0; c < calls; c++ {
					src, dst := pick(), pick()
					switch rng.Intn(8) {
					case 0, 2:
						dst = hot
					case 1:
						src = dst
					}
					f.Transfer(src, dst)
					want += ref.Transfer(src, dst)
					if rng.Intn(8) == 0 {
						f.Settle(dst) // its owner settles mid-round
					}
				}
				f.EndRound()
				ref.EndRound()
				if got := totalKnown(f) - before; got != int64(want) {
					t.Fatalf("%s: the round added %d, reference transfers %d", when, got, want)
				}
				assertSameState(t, f, ref, when)
			}
		}
	}
}

// TestMeetMatchesReference checks the fused walk arrival against the
// reference's two passes on rows that rounds have grown, with tokens
// empty, partial, equal to another row and full.
func TestMeetMatchesReference(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 200} {
		rng := xrand.New(uint64(n))
		f, ref := NewFull(n), newRefFull(n)
		for round := 1; round <= 12; round++ {
			when := fmt.Sprintf("n=%d round %d", n, round)
			for m := 0; m < 3; m++ {
				tok := bitset.New(n)
				switch m {
				case 1:
					tok.CopyFrom(ref.cur.Row(rng.Intn(n)))
					tok.Add(rng.Intn(n))
				case 2:
					if round%4 == 0 {
						tok.Fill()
					}
				}
				meet(t, f, ref, tok, int32(rng.Intn(n)), when)
			}
			f.BeginRound()
			ref.BeginRound()
			for c := 0; c < n/2; c++ {
				src, dst := int32(rng.Intn(n)), int32(rng.Intn(n))
				f.Transfer(src, dst)
				ref.Transfer(src, dst)
			}
			f.EndRound()
			ref.EndRound()
			assertSameState(t, f, ref, when)
		}
	}
}

// TestFillKeepsTailClear hits the write-only fill (src full at round
// start) on a row whose last word is partial, where a set tail bit would
// show up in Count: as the first packet, between two packets, after a
// settle that overflowed the pending slots, and after the owner's own
// mid-round settle.
func TestFillKeepsTailClear(t *testing.T) {
	const n = 65
	f, ref := NewFull(n), newRefFull(n)
	all := bitset.New(n)
	all.Fill()
	meet(t, f, ref, all, 0, "setup")
	script := [][2]int32{
		{0, 1},                 // fill first
		{3, 2}, {0, 2}, {4, 2}, // fill in the middle
		{5, 6}, {7, 6}, {8, 6}, {9, 6}, {10, 6}, {0, 6}, // fill after an inline settle
		{11, 12}, {-1, 12}, {0, 12}, {13, 12}, // fill after Settle(12)
	}
	f.BeginRound()
	ref.BeginRound()
	want := 0
	for _, p := range script {
		if p[0] < 0 {
			f.Settle(p[1])
			continue
		}
		f.Transfer(p[0], p[1])
		want += ref.Transfer(p[0], p[1])
	}
	f.EndRound()
	ref.EndRound()
	if got := totalKnown(f) - (n + n - 1); got != int64(want) {
		t.Errorf("the round added %d, reference transfers %d", got, want)
	}
	for _, v := range []int32{0, 1, 2, 6, 12} {
		if c := f.Row(v).Count(); c != n || known(f, v) != n {
			t.Errorf("row %d: Count = %d, Known = %d, want %d", v, c, known(f, v), n)
		}
	}
	assertSameState(t, f, ref, "after the round")
}

// TestConcurrentRoundMatchesReference splits each round's transfers by
// receiver over goroutines, the way Sync's par.For workers call the
// tracker, with each worker settling some of its rows mid-round (as a
// seeded schedule's OnStepEnd does) and at its end, and EndRound the
// rest. Between rounds every worker meets a walk token at one of its
// rows. Run it under -race.
func TestConcurrentRoundMatchesReference(t *testing.T) {
	const n, workers = 200, 4
	rng := xrand.New(7)
	f, ref := NewFull(n), newRefFull(n)
	for round := 1; !ref.Complete(); round++ {
		if round > 200 {
			t.Fatal("not saturated after 200 rounds")
		}
		type call struct {
			src, dst int32
			settle   bool
		}
		var script [workers][]call
		for c := 0; c < 2*n; c++ {
			cl := call{int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Intn(8) == 0}
			script[int(cl.dst)%workers] = append(script[int(cl.dst)%workers], cl)
		}
		var want, got [workers]int
		var toks [workers]*bitset.Set // a walk token arriving at each worker's first row
		for w := range toks {
			toks[w] = bitset.New(n)
			toks[w].CopyFrom(ref.cur.Row(rng.Intn(n)))
			refTok := bitset.New(n)
			refTok.CopyFrom(toks[w])
			ref.Meet(refTok, int32(w))
		}
		ref.BeginRound()
		for w, calls := range script {
			for _, cl := range calls {
				want[w] += ref.Transfer(cl.src, cl.dst)
			}
		}
		ref.EndRound()
		var wg sync.WaitGroup
		for w := range toks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.Meet(toks[w], int32(w))
			}()
		}
		wg.Wait()
		var before [n]int
		for v := range before {
			before[v] = known(f, int32(v))
		}
		f.BeginRound()
		for w := range script {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, cl := range script[w] {
					f.Transfer(cl.src, cl.dst)
					if cl.settle {
						f.Settle(cl.dst)
					}
				}
				for v := w; v < n; v += 2 * workers { // half the rows settle at step end
					f.Settle(int32(v))
				}
			}()
		}
		wg.Wait()
		f.EndRound()
		for v := range before {
			got[v%workers] += known(f, int32(v)) - before[v]
		}
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
	if !f.Complete() || !checkTotal(f) {
		t.Errorf("schedule did not saturate: TotalKnown = %d", totalKnown(f))
	}
}
