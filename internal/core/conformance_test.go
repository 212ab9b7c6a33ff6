package core

// The cross-transport conformance suite: every machine-driven algorithm
// runs on the synchronous in-memory transport and on seeded schedules of
// it (phone.NewSeeded: nodes in a seeded order, callers in a seeded
// order, each node's OnStepEnd while others still receive), and the runs
// must agree on completion semantics. For protocols whose receipt
// handling is commutative (set-union trackers, idempotent informs, vote
// counters, minimum folds) the agreement is exact — identical steps,
// meters, and delivered state; fast-gossiping's walk routing is
// order-sensitive, so there only the schedule-shaped phases and the
// delivery guarantee (everyone ends up knowing everything) must match.
// Each test walks confSchedules seeds on two graphs: G(n, log²n/n), and
// the pairing multigraph a sweep `regular` cell builds, whose loops and
// parallel edges every transport must dial alike. It runs one seed on
// G(512, log²n/n) too, where par.For splits a step into two chunks, so
// -race sees one node's receipts overlap another's OnStepEnd. A failing
// schedule is the subtest …/seed=<s>; -run with that name replays it.

import (
	"fmt"
	"slices"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

const (
	confSeed      = 0x5eed
	confSchedules = 32 // schedule seeds walked per test and graph
)

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

// eachConfGraph runs test on confGraph(256) and confMultigraph with every
// schedule seed, and on confGraph(512) with one.
func eachConfGraph(t *testing.T, test func(t *testing.T, g *graph.Graph, seeds int)) {
	t.Run("er", func(t *testing.T) { test(t, confGraph(t, 256), confSchedules) })
	t.Run("regular", func(t *testing.T) { test(t, confMultigraph(t), confSchedules) })
	t.Run("er512", func(t *testing.T) { test(t, confGraph(t, 512), 1) })
}

// eachSchedule runs check on the seeded schedules 0 … seeds−1, each as
// the subtest seed=<s>, up to the first that fails.
func eachSchedule(t *testing.T, seeds int, check func(t *testing.T, tf TransportFactory)) {
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		if !t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			check(t, func(ms []phone.Machine) phone.Transport { return phone.NewSeeded(ms, seed) })
		}) {
			return
		}
	}
}

func TestConformancePushPull(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph, seeds int) {
		s, sTr := PushPullOver(confNet(g), 0, SyncTransport)
		if !s.Completed {
			t.Fatal("sync run did not complete")
		}
		eachSchedule(t, seeds, func(t *testing.T, tf TransportFactory) {
			a, aTr := PushPullOver(confNet(g), 0, tf)
			if s.Steps != a.Steps || s.Meter != a.Meter || !a.Completed {
				t.Fatalf("sync run %+v != seeded run %+v", s.Meter, a.Meter)
			}
			if pairs(sTr, g.N()) != pairs(aTr, g.N()) {
				t.Fatalf("delivered state: sync %d seeded %d", pairs(sTr, g.N()), pairs(aTr, g.N()))
			}
		})
	})
}

func TestConformanceSampled(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph, seeds int) {
		s := PushPullSampledOver(g, confSeed, 32, 0, SyncTransport)
		if !s.Completed {
			t.Fatal("sync run did not complete")
		}
		eachSchedule(t, seeds, func(t *testing.T, tf TransportFactory) {
			a := PushPullSampledOver(g, confSeed, 32, 0, tf)
			if s.Steps != a.Steps || s.Meter != a.Meter || !a.Completed {
				t.Fatalf("sync %+v != seeded %+v", s, a)
			}
		})
	})
}

func TestConformanceBroadcast(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph, seeds int) {
		for _, mode := range []BroadcastMode{PushOnly, PullOnly, PushAndPull} {
			s := BroadcastOver(g, 0, mode, confSeed, 0, SyncTransport)
			if !s.Completed {
				t.Fatalf("%v: sync run did not complete", mode)
			}
			t.Run(fmt.Sprint(mode), func(t *testing.T) {
				eachSchedule(t, seeds, func(t *testing.T, tf TransportFactory) {
					a := BroadcastOver(g, 0, mode, confSeed, 0, tf)
					if s.Steps != a.Steps || s.Transmissions != a.Transmissions || s.Opened != a.Opened || !a.Completed {
						t.Fatalf("sync %+v != seeded %+v", s, a)
					}
					if !slices.Equal(s.InformedAt, a.InformedAt) {
						t.Fatalf("informed at sync %v seeded %v", s.InformedAt, a.InformedAt)
					}
				})
			})
		}
	})
}

func TestConformanceMedianCounter(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		seeds int
	}{{"complete", graph.Complete(256), confSchedules}, {"regular", confMultigraph(t), confSchedules}, {"complete512", graph.Complete(512), 1}} {
		t.Run(c.name, func(t *testing.T) {
			p := DefaultMedianCounterParams(c.g.N())
			s := MedianCounterOver(c.g, 0, p, confSeed, SyncTransport)
			if !s.Completed || !s.Quiesced {
				t.Fatalf("median-counter did not complete and quiesce: %+v", s)
			}
			eachSchedule(t, c.seeds, func(t *testing.T, tf TransportFactory) {
				if a := MedianCounterOver(c.g, 0, p, confSeed, tf); *s != *a {
					t.Fatalf("sync %+v != seeded %+v", s, a)
				}
			})
		})
	}
}

func TestConformanceFastGossip(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph, seeds int) {
		p := TunedFastGossipParams(g.N())
		s, sTr := FastGossipOver(confNet(g), p, SyncTransport)
		if !s.Completed || !sTr.Complete() {
			t.Fatal("sync run did not complete")
		}
		eachSchedule(t, seeds, func(t *testing.T, tf TransportFactory) {
			a, aTr := FastGossipOver(confNet(g), p, tf)
			if !a.Completed || !aTr.Complete() {
				t.Fatal("seeded run did not complete")
			}
			// Phases I and II are schedule-shaped: identical step counts
			// under any transport. Phase III step counts may differ (walk
			// routing is order-sensitive, so a seeded run reaches phase III
			// with a different message distribution).
			for i := 0; i < 2; i++ {
				if s.Phases[i].Meter.Steps != a.Phases[i].Meter.Steps {
					t.Fatalf("phase %d steps: sync %d seeded %d",
						i, s.Phases[i].Meter.Steps, a.Phases[i].Meter.Steps)
				}
			}
		})
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
		t.Fatalf("sync run %+v != seeded run %+v", s, a)
	}
	if len(s.Phases) != len(a.Phases) {
		t.Fatalf("phase count: sync %d seeded %d", len(s.Phases), len(a.Phases))
	}
	for i := range s.Phases {
		if s.Phases[i].Name != a.Phases[i].Name || s.Phases[i].Meter != a.Phases[i].Meter {
			t.Fatalf("phase %s: sync %+v seeded %+v",
				s.Phases[i].Name, s.Phases[i].Meter, a.Phases[i].Meter)
		}
	}
}

func TestConformanceMemoryGossip(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph, seeds int) {
		p := TunedMemoryParams(g.N())
		s := MemoryGossipOver(g, p, confSeed, -1, SyncTransport)
		t.Run("one-tree", func(t *testing.T) {
			eachSchedule(t, seeds, func(t *testing.T, tf TransportFactory) {
				sameResult(t, s, MemoryGossipOver(g, p, confSeed, -1, tf))
			})
		})

		// Multiple trees, a given leader.
		p.Trees = 3
		s3 := MemoryGossipOver(g, p, 99, 5, SyncTransport)
		t.Run("three-trees", func(t *testing.T) {
			eachSchedule(t, seeds, func(t *testing.T, tf TransportFactory) {
				sameResult(t, s3, MemoryGossipOver(g, p, 99, 5, tf))
			})
		})

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
		sc := memoryGossipOver(crashed(), p, 99, 5, SyncTransport)
		// Polling a crashed child opens a channel that carries nothing.
		if m := phaseMeter(t, sc, "gather"); m.Transmissions >= m.Opened {
			t.Fatalf("gather under crash failures: %d transmissions on %d opened channels",
				m.Transmissions, m.Opened)
		}
		t.Run("crashed", func(t *testing.T) {
			eachSchedule(t, seeds, func(t *testing.T, tf TransportFactory) {
				sameResult(t, sc, memoryGossipOver(crashed(), p, 99, 5, tf))
			})
		})
	})
}

func TestConformanceMemoryGossipWithElection(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph, seeds int) {
		mp, lp := TunedMemoryParams(g.N()), DefaultLeaderParams(g.N())
		sr, sle := MemoryGossipWithElectionOver(g, mp, lp, confSeed, SyncTransport)
		eachSchedule(t, seeds, func(t *testing.T, tf TransportFactory) {
			ar, ale := MemoryGossipWithElectionOver(g, mp, lp, confSeed, tf)
			sameResult(t, sr, ar)
			if *sle != *ale {
				t.Fatalf("election: sync %+v != seeded %+v", sle, ale)
			}
		})
	})
}

func TestConformanceElectLeader(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph, seeds int) {
		p := DefaultLeaderParams(g.N())
		for _, seed := range []uint64{1, 2, 7} {
			s := ElectLeaderOver(g, p, seed, SyncTransport)
			t.Run(fmt.Sprintf("run-seed=%d", seed), func(t *testing.T) {
				eachSchedule(t, seeds, func(t *testing.T, tf TransportFactory) {
					if a := ElectLeaderOver(g, p, seed, tf); *s != *a {
						t.Fatalf("sync %+v != seeded %+v", s, a)
					}
				})
			})
		}

		// With crash failures: failed nodes neither dial nor answer on any
		// transport.
		mk := func(tf TransportFactory) *LeaderResult {
			nt := phone.NewNet(g, 11)
			for _, v := range xrand.New(5).SampleK(g.N(), 20) {
				nt.Failed[v] = true
			}
			return electLeaderOver(nt, p, tf)
		}
		s := mk(SyncTransport)
		t.Run("failures", func(t *testing.T) {
			eachSchedule(t, seeds, func(t *testing.T, tf TransportFactory) {
				if a := mk(tf); *s != *a {
					t.Fatalf("sync %+v != seeded %+v", s, a)
				}
			})
		})
	})
}

func TestConformanceMemoryBroadcast(t *testing.T) {
	eachConfGraph(t, func(t *testing.T, g *graph.Graph, seeds int) {
		p := TunedMemoryParams(g.N())
		s := MemoryBroadcastOver(g, p, 3, confSeed, SyncTransport)
		eachSchedule(t, seeds, func(t *testing.T, tf TransportFactory) {
			a := MemoryBroadcastOver(g, p, 3, confSeed, tf)
			if s.Steps != a.Steps || s.Completed != a.Completed ||
				s.Transmissions != a.Transmissions || s.Opened != a.Opened {
				t.Fatalf("sync %+v != seeded %+v", s, a)
			}
			if !slices.Equal(s.InformedAt, a.InformedAt) {
				t.Fatalf("informed at sync %v seeded %v", s.InformedAt, a.InformedAt)
			}
		})
	})
}
