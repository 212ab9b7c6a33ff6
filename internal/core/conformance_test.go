package core

// The cross-transport conformance suite: every machine-driven algorithm
// runs under both the synchronous in-memory transport and the
// asynchronous goroutine-per-node transport, and the two runs must agree
// on completion semantics. For protocols whose receipt handling is
// commutative (set-union trackers, idempotent informs, vote counters,
// minimum folds) the agreement is exact — identical steps, meters, and
// delivered state; fast-gossiping's walk routing is order-sensitive, so
// there only the schedule-shaped phases and the delivery guarantee
// (everyone ends up knowing everything) must match. Each test runs on two
// graphs: G(n, log²n/n), and the pairing multigraph a sweep `regular` cell
// builds, whose loops and parallel edges every transport must dial alike.

import (
	"slices"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

const confSeed = 0x5eed

func confGraph(tb testing.TB, n int) *graph.Graph {
	tb.Helper()
	g := graph.ErdosRenyi(n, graph.PLogSquared(n), xrand.New(confSeed))
	if !graph.IsConnected(g) {
		tb.Fatalf("conformance graph n=%d disconnected", n)
	}
	return g
}

// confMultigraph is the configuration model at the sweep's density-1
// degree, round(log²n) = 64 at n = 256: the graph of a `regular` cell.
func confMultigraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	const n = 256
	g := graph.ConfigurationModel(n, int(graph.PLogSquared(n)*n+0.5), xrand.New(confSeed))
	for v := int32(0); !slices.Contains(g.Neighbors(v), v); v++ {
		if int(v) == n-1 {
			tb.Fatal("conformance multigraph has no loop")
		}
	}
	return g
}

// eachConfGraph runs test on confGraph(256) and on confMultigraph.
func eachConfGraph(t *testing.T, test func(t *testing.T, g *graph.Graph)) {
	t.Run("er", func(t *testing.T) { test(t, confGraph(t, 256)) })
	t.Run("regular", func(t *testing.T) { test(t, confMultigraph(t)) })
}

func TestConformancePushPull(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph) {
		s, sTr := PushPullOver(confNet(g), 0, SyncTransport)
		a, aTr := PushPullOver(confNet(g), 0, AsyncTransport)
		if !s.Completed || !a.Completed {
			t.Fatalf("completion: sync %v async %v", s.Completed, a.Completed)
		}
		if s.Steps != a.Steps || s.Meter != a.Meter {
			t.Fatalf("sync run %+v != async run %+v", s.Meter, a.Meter)
		}
		if pairs(sTr, g.N()) != pairs(aTr, g.N()) {
			t.Fatalf("delivered state: sync %d async %d", pairs(sTr, g.N()), pairs(aTr, g.N()))
		}
	})
}

func TestConformanceSampled(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph) {
		s := PushPullSampledOver(g, confSeed, 32, 0, SyncTransport)
		a := PushPullSampledOver(g, confSeed, 32, 0, AsyncTransport)
		if !s.Completed || !a.Completed {
			t.Fatalf("completion: sync %v async %v", s.Completed, a.Completed)
		}
		if s.Steps != a.Steps || s.Meter != a.Meter {
			t.Fatalf("sync %+v != async %+v", s, a)
		}
	})
}

func TestConformanceBroadcast(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph) {
		for _, mode := range []BroadcastMode{PushOnly, PullOnly, PushAndPull} {
			s := BroadcastOver(g, 0, mode, confSeed, 0, SyncTransport)
			a := BroadcastOver(g, 0, mode, confSeed, 0, AsyncTransport)
			if !s.Completed || !a.Completed {
				t.Fatalf("%v completion: sync %v async %v", mode, s.Completed, a.Completed)
			}
			if s.Steps != a.Steps || s.Transmissions != a.Transmissions || s.Opened != a.Opened {
				t.Fatalf("%v: sync %+v != async %+v", mode, s, a)
			}
			for v := range s.InformedAt {
				if s.InformedAt[v] != a.InformedAt[v] {
					t.Fatalf("%v: node %d informed at sync %d async %d",
						mode, v, s.InformedAt[v], a.InformedAt[v])
				}
			}
		}
	})
}

func TestConformanceMedianCounter(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Complete(256), confMultigraph(t)} {
		p := DefaultMedianCounterParams(256)
		s := MedianCounterOver(g, 0, p, confSeed, SyncTransport)
		a := MedianCounterOver(g, 0, p, confSeed, AsyncTransport)
		if *s != *a {
			t.Fatalf("m=%d: sync %+v != async %+v", g.M(), s, a)
		}
		if !s.Completed || !s.Quiesced {
			t.Fatalf("m=%d: median-counter did not complete and quiesce: %+v", g.M(), s)
		}
	}
}

func TestConformanceFastGossip(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph) {
		p := TunedFastGossipParams(256)
		s, sTr := FastGossipOver(confNet(g), p, SyncTransport)
		a, aTr := FastGossipOver(confNet(g), p, AsyncTransport)
		if !s.Completed || !a.Completed {
			t.Fatalf("completion: sync %v async %v", s.Completed, a.Completed)
		}
		if !sTr.Complete() || !aTr.Complete() {
			t.Fatal("trackers incomplete despite completed result")
		}
		// Phases I and II are schedule-shaped: identical step counts under
		// any transport. Phase III step counts may differ (walk routing is
		// order-sensitive, so the async run reaches phase III with a
		// different message distribution).
		for i := 0; i < 2; i++ {
			if s.Phases[i].Meter.Steps != a.Phases[i].Meter.Steps {
				t.Fatalf("phase %d steps: sync %d async %d",
					i, s.Phases[i].Meter.Steps, a.Phases[i].Meter.Steps)
			}
		}
	})
}

func confNet(g *graph.Graph) *phone.Net { return phone.NewNet(g, confSeed) }

// sameResult demands exact agreement between two runs: totals, completion,
// and every phase meter. Memory-model informs are idempotent, gather
// transfers and leader-ID folds are commutative, and every step-boundary
// predicate snapshots round-start state, so transport phasing must be
// invisible down to the meter.
func sameResult(t *testing.T, s, a *Result) {
	t.Helper()
	if s.Completed != a.Completed || s.Steps != a.Steps || s.Leader != a.Leader || s.Meter != a.Meter {
		t.Fatalf("sync run %+v != async run %+v", s, a)
	}
	if len(s.Phases) != len(a.Phases) {
		t.Fatalf("phase count: sync %d async %d", len(s.Phases), len(a.Phases))
	}
	for i := range s.Phases {
		if s.Phases[i].Name != a.Phases[i].Name || s.Phases[i].Meter != a.Phases[i].Meter {
			t.Fatalf("phase %s: sync %+v async %+v",
				s.Phases[i].Name, s.Phases[i].Meter, a.Phases[i].Meter)
		}
	}
}

func TestConformanceMemoryGossip(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph) {
		p := TunedMemoryParams(256)
		sameResult(t,
			MemoryGossipOver(g, p, confSeed, -1, SyncTransport),
			MemoryGossipOver(g, p, confSeed, -1, AsyncTransport))

		// Multiple trees, a given leader.
		p.Trees = 3
		sameResult(t,
			MemoryGossipOver(g, p, 99, 5, SyncTransport),
			MemoryGossipOver(g, p, 99, 5, AsyncTransport))

		// Crash failures before the run: a fixed sample of non-leader nodes
		// never dials or answers, through all three phases.
		crashed := func() *phone.Net {
			nt := phone.NewNet(g, 99)
			for _, v := range xrand.New(confSeed).SampleK(g.N()-1, 16) {
				if v >= 5 {
					v++ // skip the leader
				}
				nt.Failed[v] = true
			}
			return nt
		}
		s := memoryGossipOver(crashed(), p, 99, 5, SyncTransport)
		sameResult(t, s, memoryGossipOver(crashed(), p, 99, 5, AsyncTransport))
		// Polling a crashed child opens a channel that carries nothing.
		if m := phaseMeter(t, s, "gather"); m.Transmissions >= m.Opened {
			t.Fatalf("gather under crash failures: %d transmissions on %d opened channels",
				m.Transmissions, m.Opened)
		}
	})
}

func TestConformanceMemoryGossipWithElection(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph) {
		sr, sle := MemoryGossipWithElectionOver(g, TunedMemoryParams(256), DefaultLeaderParams(256), confSeed, SyncTransport)
		ar, ale := MemoryGossipWithElectionOver(g, TunedMemoryParams(256), DefaultLeaderParams(256), confSeed, AsyncTransport)
		sameResult(t, sr, ar)
		if *sle != *ale {
			t.Fatalf("election: sync %+v != async %+v", sle, ale)
		}
	})
}

func TestConformanceElectLeader(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph) {
		for _, seed := range []uint64{1, 2, 7} {
			s := ElectLeaderOver(g, DefaultLeaderParams(256), seed, SyncTransport)
			a := ElectLeaderOver(g, DefaultLeaderParams(256), seed, AsyncTransport)
			if *s != *a {
				t.Fatalf("seed %d: sync %+v != async %+v", seed, s, a)
			}
		}

		// With crash failures: failed nodes neither dial nor answer on any
		// transport.
		mk := func(tf TransportFactory) *LeaderResult {
			nt := phone.NewNet(g, 11)
			for _, v := range xrand.New(5).SampleK(256, 20) {
				nt.Failed[v] = true
			}
			return electLeaderOver(nt, DefaultLeaderParams(256), tf)
		}
		s, a := mk(SyncTransport), mk(AsyncTransport)
		if *s != *a {
			t.Fatalf("failures: sync %+v != async %+v", s, a)
		}
	})
}

func TestConformanceMemoryBroadcast(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph) {
		p := TunedMemoryParams(256)
		s := MemoryBroadcastOver(g, p, 3, confSeed, SyncTransport)
		a := MemoryBroadcastOver(g, p, 3, confSeed, AsyncTransport)
		if s.Steps != a.Steps || s.Completed != a.Completed ||
			s.Transmissions != a.Transmissions || s.Opened != a.Opened {
			t.Fatalf("sync %+v != async %+v", s, a)
		}
		for v := range s.InformedAt {
			if s.InformedAt[v] != a.InformedAt[v] {
				t.Fatalf("node %d informed at sync %d async %d", v, s.InformedAt[v], a.InformedAt[v])
			}
		}
	})
}
