package core

import (
	"testing"

	"gossip/internal/graph"
	"gossip/internal/msg"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

func TestMedianCounterCompletesAndQuiesces(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"complete", graph.Complete(1024)},
		{"er", testGraph(1024, 70)},
	} {
		res := MedianCounterBroadcast(tc.g, 0, DefaultMedianCounterParams(1024), 1)
		if !res.Completed {
			t.Errorf("%s: informed only %d/%d", tc.name, res.Informed, res.N)
		}
		if !res.Quiesced {
			t.Errorf("%s: protocol did not self-terminate in %d steps", tc.name, res.Steps)
		}
	}
}

func TestMedianCounterTransmissionsOnCompleteGraph(t *testing.T) {
	// Karp et al.: Θ(n·loglog n) transmissions on the complete graph.
	n := 4096
	g := graph.Complete(n)
	res := MedianCounterBroadcast(g, 0, DefaultMedianCounterParams(n), 2)
	if !res.Completed || !res.Quiesced {
		t.Fatalf("run failed: %+v", res)
	}
	perNode := float64(res.Transmissions) / float64(n)
	// loglog n ≈ 3.58; generous envelope for the constant.
	if perNode > 12*LogLogn(n) {
		t.Errorf("complete graph: %.2f transmissions/node, want O(loglog n)", perNode)
	}
	if perNode < 1 {
		t.Errorf("complete graph: %.2f transmissions/node implausibly low", perNode)
	}
}

func TestMedianCounterDensityInsensitiveAtSimulableScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: multi-density scan")
	}
	// Elsässer [19] proves the complete-graph O(n·loglog n) broadcast
	// bound is asymptotically unreachable on random graphs of small or
	// moderate degree. That separation lives in ω(·) territory: at
	// simulable sizes the measured costs coincide within noise, and THAT
	// is the property this test pins (so a regression that silently makes
	// one topology much more expensive is caught). exp.AblationMedianCounter
	// discusses the asymptotic claim.
	n := 4096
	sparse := testGraph(n, 71)
	complete := graph.Complete(n)
	perNode := func(g *graph.Graph, seed uint64) float64 {
		acc := 0.0
		const reps = 3
		for r := uint64(0); r < reps; r++ {
			res := MedianCounterBroadcast(g, 0, DefaultMedianCounterParams(n), seed+r)
			if !res.Completed {
				t.Fatal("did not complete")
			}
			acc += float64(res.Transmissions) / float64(n)
		}
		return acc / reps
	}
	cg := perNode(complete, 10)
	sg := perNode(sparse, 20)
	if sg > 1.5*cg || cg > 1.5*sg {
		t.Errorf("unexpected large gap at this scale: sparse %.2f vs complete %.2f", sg, cg)
	}
}

func TestMedianCounterRoundsLogarithmic(t *testing.T) {
	n := 2048
	res := MedianCounterBroadcast(testGraph(n, 72), 0, DefaultMedianCounterParams(n), 3)
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if float64(res.Steps) > 8*Logn(n) {
		t.Errorf("steps = %d, want O(log n)", res.Steps)
	}
}

func TestMedianCounterDefaults(t *testing.T) {
	// Zero params get defaulted rather than running forever.
	res := MedianCounterBroadcast(testGraph(256, 73), 0, MedianCounterParams{}, 4)
	if !res.Completed {
		t.Error("defaulted params did not complete")
	}
}

func TestMedianCounterOpenedEveryRound(t *testing.T) {
	// The model charges channel openings: every node opens every round.
	n := 512
	res := MedianCounterBroadcast(testGraph(n, 74), 0, DefaultMedianCounterParams(n), 5)
	if res.Opened != int64(n)*int64(res.Steps) {
		t.Errorf("opened = %d, want n·steps = %d", res.Opened, int64(n)*int64(res.Steps))
	}
}

func TestMemoryBroadcastStandalone(t *testing.T) {
	n := 2048
	g := testGraph(n, 75)
	res := MemoryBroadcast(g, TunedMemoryParams(n), 7, 6)
	if !res.Completed {
		t.Fatal("memory broadcast did not complete")
	}
	if res.Mode != MemoryBroadcastMode || res.Mode.String() != "memory-broadcast" {
		t.Error("mode labeling wrong")
	}
	if res.InformedAt[7] != 0 {
		t.Error("root informed time wrong")
	}
	// O(n) transmissions: every node pushes at most 4 times, pull answers
	// are one per informed node; generous envelope.
	if perNode := float64(res.Transmissions) / float64(n); perNode > 8 {
		t.Errorf("memory broadcast %.2f transmissions/node, want O(1)", perNode)
	}
	// O(log n) rounds.
	if float64(res.Steps) > 6*Logn(n) {
		t.Errorf("memory broadcast %d steps, want O(log n)", res.Steps)
	}
}

func TestMemoryBroadcastCheaperThanPush(t *testing.T) {
	// [20]'s point: memory broadcasting beats plain push on transmissions.
	n := 4096
	g := testGraph(n, 76)
	mb := MemoryBroadcast(g, TunedMemoryParams(n), 0, 7)
	push := Broadcast(g, 0, PushOnly, 8, 0)
	if !mb.Completed || !push.Completed {
		t.Fatal("runs incomplete")
	}
	if mb.Transmissions >= push.Transmissions {
		t.Errorf("memory broadcast (%d) not cheaper than push (%d)",
			mb.Transmissions, push.Transmissions)
	}
}

func TestPushPullSampledTracksExact(t *testing.T) {
	// With K = n the sampled estimator must report the exact completion
	// round (same seed drives identical channel dynamics).
	n := 512
	g := testGraph(n, 77)
	exact := PushPull(g, 9, 0)
	est := PushPullSampledOver(g, 9, n, 0, SyncTransport)
	if !est.Completed {
		t.Fatal("estimator did not complete")
	}
	if est.Steps != exact.Steps {
		t.Errorf("K=n estimator rounds %d != exact %d", est.Steps, exact.Steps)
	}
}

func TestPushPullSampledLowerBound(t *testing.T) {
	// A strict sample can only complete at or before the exact run.
	n := 1024
	g := testGraph(n, 78)
	exact := PushPull(g, 10, 0)
	est := PushPullSampledOver(g, 10, 32, 0, SyncTransport)
	if !est.Completed {
		t.Fatal("estimator did not complete")
	}
	if est.Steps > exact.Steps {
		t.Errorf("sampled completion %d after exact completion %d", est.Steps, exact.Steps)
	}
	// On these graphs per-message completion concentrates: the gap stays
	// within a few rounds.
	if exact.Steps-est.Steps > 4 {
		t.Errorf("estimator gap %d rounds too large", exact.Steps-est.Steps)
	}
	if est.N != n {
		t.Error("metadata wrong")
	}
}

// TestPushPullSampledMetersCrashes: the meter comes from the transport's
// tally, not from the tracker, so with crashed nodes the exact and the
// k-sampled tracker meter one seed's run identically — both to the cap,
// the crashed callees' lone pushes included.
func TestPushPullSampledMetersCrashes(t *testing.T) {
	const n, seed, maxSteps = 256, 12, 40
	g := testGraph(n, 80)
	crashed := func() *phone.Net {
		nt := phone.NewNet(g, seed)
		for _, v := range xrand.New(3).SampleK(n, 8) {
			nt.Failed[v] = true
		}
		return nt
	}
	exact, _ := PushPullOver(crashed(), maxSteps, SyncTransport)
	est := pushPull(crashed(), maxSteps, SyncTransport, msg.NewSampled(n, 32, seed))
	for _, r := range []*Result{exact, est} {
		if r.Completed || r.Steps != maxSteps {
			t.Fatalf("run with crashed nodes: completed %v after %d steps, want the cap %d", r.Completed, r.Steps, maxSteps)
		}
	}
	if exact.Meter != est.Meter {
		t.Errorf("meters differ: exact %+v, sampled %+v", exact.Meter, est.Meter)
	}
	if m := est.Meter; m.Packets >= 2*m.Transmissions {
		t.Errorf("no lone push metered: %+v", m)
	}
}

func TestPushPullSampledScalesBeyondExact(t *testing.T) {
	// Smoke: a size whose n² tracker would be 2 GB runs fine sampled.
	if testing.Short() {
		t.Skip("short mode")
	}
	n := 65536
	g := testGraph(n, 79)
	est := PushPullSampledOver(g, 11, 16, 0, SyncTransport)
	if !est.Completed {
		t.Errorf("estimator incomplete at n=%d", n)
	}
	if est.TransmissionsPerNode() != float64(est.Steps) {
		t.Error("baseline invariant msgs/node == rounds broken")
	}
}
