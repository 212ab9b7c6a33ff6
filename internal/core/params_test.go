package core

import (
	"math"
	"testing"
)

func TestLognConventions(t *testing.T) {
	if Logn(1024) != 10 {
		t.Errorf("Logn(1024) = %v", Logn(1024))
	}
	if Logn(1) != 1 || Logn(0) != 1 {
		t.Error("Logn should clamp below at 1")
	}
	if got := LogLogn(1 << 16); math.Abs(got-4) > 1e-12 {
		t.Errorf("LogLogn(2^16) = %v", got)
	}
	if LogLogn(2) != 1 {
		t.Error("LogLogn should clamp below at 1")
	}
}

func TestRoundUp4(t *testing.T) {
	cases := map[int]int{0: 0, 1: 4, 4: 4, 5: 8, 8: 8}
	for in, want := range cases {
		if got := roundUp4(in); got != want {
			t.Errorf("roundUp4(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestTunedFastGossipParamsTable1(t *testing.T) {
	// Spot-check the Table 1 formulas at n = 2^20 (log n = 20,
	// loglog n = log2(20) ≈ 4.32).
	p := TunedFastGossipParams(1 << 20)
	if p.DistributionSteps != 6 { // ceil(1.2·4.3219) = ceil(5.186) = 6
		t.Errorf("DistributionSteps = %d, want 6", p.DistributionSteps)
	}
	if p.Rounds != 5 { // ceil(20/4.3219) = ceil(4.627) = 5
		t.Errorf("Rounds = %d, want 5", p.Rounds)
	}
	if math.Abs(p.WalkProb-1.0/20) > 1e-12 {
		t.Errorf("WalkProb = %v, want 1/20", p.WalkProb)
	}
	if p.WalkSteps != 7 { // ceil(20/4.3219 + 2) = ceil(6.627) = 7
		t.Errorf("WalkSteps = %d, want 7", p.WalkSteps)
	}
	if p.BroadcastSteps != 3 { // ceil(0.5·4.3219) = 3
		t.Errorf("BroadcastSteps = %d, want 3", p.BroadcastSteps)
	}
}

func TestTunedMemoryParamsTable1(t *testing.T) {
	p := TunedMemoryParams(1 << 20)
	if p.PushSteps != 40 { // 2·20 = 40, already a multiple of 4
		t.Errorf("PushSteps = %d, want 40", p.PushSteps)
	}
	if p.PullSteps != 8 { // floor(2·4.3219) = 8
		t.Errorf("PullSteps = %d, want 8", p.PullSteps)
	}
	if p.Phase3PushSteps != 20 { // ⌊log n⌋ = 20, multiple of 4
		t.Errorf("Phase3PushSteps = %d, want 20", p.Phase3PushSteps)
	}
	if p.MemSlots != 4 || p.Trees != 1 {
		t.Errorf("MemSlots/Trees = %d/%d", p.MemSlots, p.Trees)
	}
}

func TestTheoryParamsScale(t *testing.T) {
	// The theory schedules must dominate the tuned ones (they carry the
	// proof constants).
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		th, tu := TheoryFastGossipParams(n), TunedFastGossipParams(n)
		if th.DistributionSteps < tu.DistributionSteps {
			t.Errorf("n=%d: theory Phase I shorter than tuned", n)
		}
		if th.Rounds < tu.Rounds || th.WalkSteps < tu.WalkSteps {
			t.Errorf("n=%d: theory Phase II shorter than tuned", n)
		}
	}
}

func TestDefaultLeaderParams(t *testing.T) {
	p := DefaultLeaderParams(1 << 16)
	want := 16.0 * 16.0 / float64(1<<16)
	if math.Abs(p.CandidateProb-want) > 1e-12 {
		t.Errorf("CandidateProb = %v, want %v", p.CandidateProb, want)
	}
	if p.AvoidLast != 3 {
		t.Errorf("AvoidLast = %d", p.AvoidLast)
	}
	// Tiny n: probability clamps to 1.
	if DefaultLeaderParams(4).CandidateProb != 1 {
		t.Error("CandidateProb should clamp to 1 on tiny n")
	}
}

func TestParamsGrowWithN(t *testing.T) {
	// Schedules are non-decreasing in n — the discontinuities of Figure 1
	// come exactly from these ceilings.
	prev := TunedFastGossipParams(1 << 10)
	for e := 11; e <= 20; e++ {
		cur := TunedFastGossipParams(1 << e)
		if cur.DistributionSteps < prev.DistributionSteps || cur.Rounds < prev.Rounds {
			t.Errorf("schedule shrank from 2^%d to 2^%d", e-1, e)
		}
		prev = cur
	}
}
