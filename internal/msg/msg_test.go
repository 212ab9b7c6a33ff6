package msg

import (
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
