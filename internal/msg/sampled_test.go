package msg

import (
	"testing"
	"testing/quick"

	"gossip/internal/xrand"
)

func TestSampledInitialState(t *testing.T) {
	s := NewSampled(100, 10, 1)
	if s.K() != 10 {
		t.Fatalf("K = %d", s.K())
	}
	if s.TotalKnown() != 10 {
		t.Errorf("TotalKnown = %d", s.TotalKnown())
	}
	for _, id := range s.IDs() {
		if s.Known(id) < 1 {
			t.Errorf("origin %d does not know its own message", id)
		}
		if got := s.InformedOf(id); got != 1 {
			t.Errorf("InformedOf(%d) = %d", id, got)
		}
	}
}

func TestSampledIDsSortedDistinct(t *testing.T) {
	s := NewSampled(50, 20, 2)
	ids := s.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not ascending/distinct: %v", ids)
		}
	}
}

func TestSampledClampsK(t *testing.T) {
	s := NewSampled(5, 99, 3)
	if s.K() != 5 {
		t.Errorf("K = %d, want clamp to 5", s.K())
	}
}

func TestSampledTransferSemantics(t *testing.T) {
	s := NewSampled(4, 4, 4) // K = n: every message tracked
	// Chain within one round must not leak (snapshot semantics).
	s.BeginRound()
	s.Transfer(0, 1)
	s.Transfer(1, 2)
	s.EndRound()
	if s.InformedOf(0) != 2 { // at nodes 0 and 1 only
		t.Errorf("InformedOf(0) = %d", s.InformedOf(0))
	}
	if s.InformedOf(3) != 1 {
		t.Errorf("InformedOf(3) = %d", s.InformedOf(3))
	}
}

func TestSampledUntrackedID(t *testing.T) {
	s := NewSampled(100, 2, 5)
	tracked := map[int32]bool{}
	for _, id := range s.IDs() {
		tracked[id] = true
	}
	for v := int32(0); v < 100; v++ {
		if !tracked[v] {
			if s.InformedOf(v) != -1 {
				t.Errorf("untracked id %d reported %d", v, s.InformedOf(v))
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
			if full.TotalKnown() != samp.TotalKnown() {
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
