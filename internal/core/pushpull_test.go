package core

import (
	"testing"

	"gossip/internal/graph"
	"gossip/internal/msg"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

// testGraph builds the standard test network: G(n, log²n/n).
func testGraph(n int, seed uint64) *graph.Graph {
	return graph.ErdosRenyi(n, graph.PLogSquared(n), xrand.New(seed))
}

func TestPushPullCompletes(t *testing.T) {
	for _, n := range []int{128, 512, 1024} {
		g := testGraph(n, uint64(n))
		res := PushPull(g, 1, 0)
		if !res.Completed {
			t.Errorf("n=%d: push-pull did not complete in %d steps", n, res.Steps)
		}
		if res.Steps == 0 || res.Meter.Transmissions == 0 {
			t.Errorf("n=%d: empty accounting", n)
		}
	}
}

// pairs returns the informed (node, message) pairs of tr's live state
// over n nodes.
func pairs(tr *msg.Full, n int) int64 {
	var c int64
	for v := 0; v < n; v++ {
		c += int64(tr.Row(int32(v)).Count())
	}
	return c
}

// informedOf returns how many of the n nodes know message m.
func informedOf(tr *msg.Full, n int, m int32) int {
	c := 0
	for v := 0; v < n; v++ {
		if tr.Row(int32(v)).Contains(int(m)) {
			c++
		}
	}
	return c
}

func TestPushPullTrackedFullKnowledge(t *testing.T) {
	n := 256
	g := testGraph(n, 7)
	res, tr := PushPullOver(phone.NewNet(g, 2), 0, SyncTransport)
	if !res.Completed {
		t.Fatal("did not complete")
	}
	for v := int32(0); int(v) < n; v++ {
		if tr.Row(v).Count() != n {
			t.Fatalf("node %d knows only %d messages", v, tr.Row(v).Count())
		}
	}
	if !tr.Complete() {
		t.Error("tracker counter out of sync")
	}
}

func TestPushPullMsgsPerNodeEqualsRounds(t *testing.T) {
	// The paper: "since in this approach each node communicates in every
	// round, the number of messages per node corresponds to the number of
	// rounds." Exact under the exchange-counted-once convention on a
	// connected graph (every node dials every round).
	n := 512
	g := testGraph(n, 3)
	res := PushPull(g, 4, 0)
	if got, want := res.TransmissionsPerNode(), float64(res.Steps); got != want {
		t.Errorf("msgs/node = %v, rounds = %v", got, want)
	}
	if got := res.OpenedPerNode(); got != float64(res.Steps) {
		t.Errorf("opened/node = %v, rounds = %v", got, res.Steps)
	}
	if got := res.PacketsPerNode(); got != 2*float64(res.Steps) {
		t.Errorf("packets/node = %v, want 2·rounds", got)
	}
}

func TestPushPullRoundsScaleLogarithmically(t *testing.T) {
	// Completion in O(log n) rounds: generous constant-factor check.
	for _, n := range []int{256, 1024} {
		g := testGraph(n, 11)
		res := PushPull(g, 5, 0)
		if !res.Completed {
			t.Fatalf("n=%d did not complete", n)
		}
		if float64(res.Steps) > 4*Logn(n) {
			t.Errorf("n=%d: %d rounds > 4·log n", n, res.Steps)
		}
		if float64(res.Steps) < Logn(n)/2 {
			t.Errorf("n=%d: %d rounds suspiciously few", n, res.Steps)
		}
	}
}

func TestPushPullDeterministicPerSeed(t *testing.T) {
	g := testGraph(256, 9)
	a := PushPull(g, 42, 0)
	b := PushPull(g, 42, 0)
	if a.Steps != b.Steps || a.Meter != b.Meter {
		t.Error("same seed produced different runs")
	}
	c := PushPull(g, 43, 0)
	if a.Steps == c.Steps && a.Meter == c.Meter {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

func TestPushPullRespectsCap(t *testing.T) {
	g := testGraph(256, 10)
	res := PushPull(g, 1, 3)
	if res.Steps > 3 {
		t.Errorf("cap ignored: %d steps", res.Steps)
	}
	if res.Completed {
		t.Error("3 steps cannot complete gossiping on 256 nodes")
	}
}

func TestPushPullDisconnectedNeverCompletes(t *testing.T) {
	// Two components: completion impossible; cap must end the run.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	g := graph.FromEdges(4, edges)
	res := PushPull(g, 1, 50)
	if res.Completed {
		t.Error("disconnected graph reported complete")
	}
	if res.Steps != 50 {
		t.Errorf("expected to run to the cap, got %d", res.Steps)
	}
}

func TestPushPullOnRandomRegular(t *testing.T) {
	// The paper proves its results for the configuration model too.
	rng := xrand.New(21)
	g := graph.ConfigurationModel(512, 32, rng)
	res := PushPull(g, 2, 0)
	if !res.Completed {
		t.Error("push-pull on random regular graph did not complete")
	}
}

// Crashed nodes keep their channel closed and answer nothing: the
// uniform dial's failure check lives in the machine, not in phone.Net.
func TestFailedMachinesDoNotDial(t *testing.T) {
	nt := phone.NewNet(testGraph(64, 5), 2)
	nt.Failed[3] = true
	for v, m := range exchangeMachines(nt, nil) {
		dial, push, answer := m.OnStep(1)
		if failed := v == 3; failed != (dial == phone.NoDial) || failed != (push == nil) || failed != (answer == nil) {
			t.Errorf("node %d (failed=%v) dialed %d with push %v and answer %v", v, failed, dial, push, answer)
		}
	}
	if a, b := nt.RNG(3).Uint64(), phone.NewNet(nt.G, 2).RNG(3).Uint64(); a != b {
		t.Error("failed node's stream was consumed")
	}
}

// TestSyncStepZeroAlloc: the exchange machines dial phone.DialUniform,
// which Sync resolves in its own tables, so a steady-state Sync.Step of
// them (under the tracker's round) allocates nothing.
func TestSyncStepZeroAlloc(t *testing.T) {
	for _, n := range []int{128, 2048} {
		tr := msg.NewFull(n)
		s := phone.NewSync(exchangeMachines(phone.NewNet(testGraph(n, 3), 1), tr))
		step := int32(1)
		allocs := testing.AllocsPerRun(50, func() {
			tr.BeginRound()
			s.Step(step)
			tr.EndRound()
			step++
		})
		if allocs != 0 {
			t.Errorf("n = %d: Sync.Step allocated %v times per step, want 0", n, allocs)
		}
	}
}

// TestSampledRoundZeroAlloc: the sampled tracker's round (BeginRound's
// par.For copy, the step's transfers, EndRound's recount) allocates
// nothing in steady state either.
func TestSampledRoundZeroAlloc(t *testing.T) {
	for _, n := range []int{128, 2048} {
		tr := msg.NewSampled(n, 64, 5)
		s := phone.NewSync(exchangeMachines(phone.NewNet(testGraph(n, 3), 1), tr))
		step := int32(1)
		allocs := testing.AllocsPerRun(50, func() {
			tr.BeginRound()
			s.Step(step)
			tr.EndRound()
			step++
		})
		if allocs != 0 {
			t.Errorf("n = %d: a sampled round allocated %v times, want 0", n, allocs)
		}
	}
}
