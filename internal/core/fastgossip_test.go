package core

import (
	"testing"

	"gossip/internal/graph"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

func TestFastGossipCompletesTuned(t *testing.T) {
	for _, n := range []int{256, 1024} {
		g := testGraph(n, uint64(n)+100)
		res := FastGossip(g, TunedFastGossipParams(n), 1)
		if !res.Completed {
			t.Errorf("n=%d: fast-gossiping did not complete: %v", n, res)
		}
		if len(res.Phases) != 3 {
			t.Errorf("n=%d: expected 3 phases, got %d", n, len(res.Phases))
		}
	}
}

func TestFastGossipCompletesTheory(t *testing.T) {
	n := 512
	g := testGraph(n, 5)
	res := FastGossip(g, TheoryFastGossipParams(n), 2)
	if !res.Completed {
		t.Errorf("theory schedule did not complete: %v", res)
	}
}

func TestFastGossipFullKnowledge(t *testing.T) {
	n := 256
	g := testGraph(n, 6)
	res, tr := FastGossipOver(phone.NewNet(g, 3), TunedFastGossipParams(n), SyncTransport)
	if !res.Completed {
		t.Fatal("did not complete")
	}
	for v := int32(0); int(v) < n; v++ {
		if tr.Row(v).Count() != n {
			t.Fatalf("node %d knows %d/%d messages", v, tr.Row(v).Count(), n)
		}
	}
	if !tr.Complete() {
		t.Error("tracker counter out of sync")
	}
}

func TestFastGossipBeatsPushPullOnTransmissions(t *testing.T) {
	// The headline empirical claim of Figure 1: Algorithm 1 sends fewer
	// messages per node than plain push-pull, with the gap growing in n.
	n := 2048
	g := testGraph(n, 8)
	fgAcc, ppAcc := 0.0, 0.0
	const reps = 3
	for r := uint64(0); r < reps; r++ {
		fg := FastGossip(g, TunedFastGossipParams(n), 10+r)
		pp := PushPull(g, 20+r, 0)
		if !fg.Completed || !pp.Completed {
			t.Fatal("a run did not complete")
		}
		fgAcc += fg.TransmissionsPerNode()
		ppAcc += pp.TransmissionsPerNode()
	}
	if fgAcc >= ppAcc {
		t.Errorf("fast-gossiping (%.2f msgs/node) not cheaper than push-pull (%.2f)",
			fgAcc/reps, ppAcc/reps)
	}
}

func TestFastGossipPhaseAccounting(t *testing.T) {
	n := 512
	g := testGraph(n, 9)
	p := TunedFastGossipParams(n)
	res := FastGossip(g, p, 4)
	if res.Phases[0].Name != "distribution" || res.Phases[1].Name != "random-walks" || res.Phases[2].Name != "broadcast" {
		t.Fatalf("phase names wrong: %+v", res.Phases)
	}
	if res.Phases[0].Meter.Steps != p.DistributionSteps {
		t.Errorf("Phase I steps = %d, want %d", res.Phases[0].Meter.Steps, p.DistributionSteps)
	}
	wantP2 := p.Rounds * (1 + p.WalkSteps + p.BroadcastSteps)
	if res.Phases[1].Meter.Steps != wantP2 {
		t.Errorf("Phase II steps = %d, want %d", res.Phases[1].Meter.Steps, wantP2)
	}
	// Phase I transmissions: every node pushes every step on a connected
	// graph.
	if got := res.Phases[0].Meter.Transmissions; got != int64(n*p.DistributionSteps) {
		t.Errorf("Phase I transmissions = %d, want %d", got, n*p.DistributionSteps)
	}
	// Totals are the sum of phases.
	var sumT int64
	var sumS int
	for _, ph := range res.Phases {
		sumT += ph.Meter.Transmissions
		sumS += ph.Meter.Steps
	}
	if res.Meter.Transmissions != sumT || res.Steps != sumS {
		t.Error("run totals do not match phase sums")
	}
}

func TestFastGossipWalkPhaseCheaperThanBlanketPush(t *testing.T) {
	// Phase II's entire point: its transmissions are far below one push
	// per node per step (the walk population is ~n/log n).
	n := 2048
	g := testGraph(n, 12)
	p := TunedFastGossipParams(n)
	res := FastGossip(g, p, 5)
	p2 := res.Phases[1].Meter
	blanket := int64(n) * int64(p2.Steps)
	if p2.Transmissions*3 > blanket {
		t.Errorf("walk phase transmissions %d not well below blanket %d", p2.Transmissions, blanket)
	}
}

func TestFastGossipDeterministic(t *testing.T) {
	n := 512
	g := testGraph(n, 13)
	p := TunedFastGossipParams(n)
	a := FastGossip(g, p, 77)
	b := FastGossip(g, p, 77)
	if a.Steps != b.Steps || a.Meter != b.Meter {
		t.Error("same seed produced different runs")
	}
}

func TestFastGossipOnRandomRegular(t *testing.T) {
	rng := xrand.New(31)
	n := 512
	g := graph.ConfigurationModel(n, 48, rng)
	res := FastGossip(g, TunedFastGossipParams(n), 6)
	if !res.Completed {
		t.Errorf("fast-gossiping on random regular graph did not complete: %v", res)
	}
}

func TestFastGossipZeroWalkProbStillCompletes(t *testing.T) {
	// With no walks, Phase III alone must finish the job (it is plain
	// push-pull run to completion) — the algorithm degrades, never breaks.
	n := 256
	g := testGraph(n, 14)
	p := TunedFastGossipParams(n)
	p.WalkProb = 0
	res := FastGossip(g, p, 7)
	if !res.Completed {
		t.Error("no-walk configuration did not complete")
	}
	if res.Phases[1].Meter.Transmissions != 0 {
		t.Error("walk phase sent messages despite WalkProb=0")
	}
}

func TestFastGossipMaxMovesRespected(t *testing.T) {
	// With MaxMoves=1 every walk dies on arrival; the walk phase may only
	// charge the initial pushes plus nothing from forwarding.
	n := 256
	g := testGraph(n, 15)
	p := TunedFastGossipParams(n)
	p.MaxMoves = 0 // arrivals have Moves=1 > 0: all dropped immediately
	res := FastGossip(g, p, 8)
	maxStarts := int64(n * p.Rounds) // loose upper bound on coin-flip pushes
	if got := res.Phases[1].Meter.Transmissions; got > maxStarts {
		t.Errorf("walk transmissions %d exceed start pushes bound %d", got, maxStarts)
	}
	if !res.Completed {
		t.Error("run did not complete")
	}
}

func TestFastGossipFailedNodesStaySilent(t *testing.T) {
	// Failed nodes neither dial nor store: after the run they know only
	// their own message, and their messages never spread.
	n := 256
	g := testGraph(n, 16)
	nt := phone.NewNet(g, 9)
	failedSet := []int32{3, 99, 200}
	for _, v := range failedSet {
		nt.Failed[v] = true
	}
	res, tr := FastGossipOver(nt, TunedFastGossipParams(n), SyncTransport)
	if res.Completed {
		t.Error("run with crashed nodes cannot reach all-pairs completion")
	}
	for _, v := range failedSet {
		if tr.Row(v).Count() != 1 {
			t.Errorf("failed node %d learned %d messages", v, tr.Row(v).Count())
		}
		if got := informedOf(tr, n, v); got != 1 {
			t.Errorf("failed node %d's message spread to %d nodes", v, got)
		}
	}
	// Healthy nodes must still learn every healthy message.
	for v := int32(0); int(v) < n; v++ {
		if nt.Failed[v] {
			continue
		}
		if got := tr.Row(v).Count(); got < n-len(failedSet) {
			t.Errorf("healthy node %d knows only %d messages", v, got)
		}
	}
}
