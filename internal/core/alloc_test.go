package core

import (
	"runtime"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/phone"
)

// TestMachineSetConstructorsAllocateO1: every machine set is one slab of
// machines plus one slice of phone.Machines, so building it makes the
// same small number of allocations at any n. The leader set boxes one
// wire per candidate; CandidateProb 0 leaves the one fallback candidate
// at both sizes.
func TestMachineSetConstructorsAllocateO1(t *testing.T) {
	const maxAllocs = 8
	sets := []struct {
		name  string
		build func(nt *phone.Net)
	}{
		{"exchange", func(nt *phone.Net) { exchangeMachines(nt, nil) }},
		{"fast", func(nt *phone.Net) { newFgMachines(nt, nil, TunedFastGossipParams(nt.G.N())) }},
		{"broadcast", func(nt *phone.Net) { NewBroadcastSet(nt, 0, PushAndPull, nil) }},
		{"leader", func(nt *phone.Net) {
			p := DefaultLeaderParams(nt.G.N())
			p.CandidateProb = 0
			NewLeaderSet(nt, p)
		}},
		{"tree", func(nt *phone.Net) { newTreeSet(nt, &Tree{N: nt.G.N()}, 8, true) }},
		{"median counter", func(nt *phone.Net) { newMcMachines(nt, 0, DefaultMedianCounterParams(nt.G.N())) }},
	}
	runtime.GC() // the first cycle starts the mark workers; count none of it
	for _, s := range sets {
		var counts [2]float64
		for i, n := range []int{1024, 4096} {
			nt := phone.NewNet(graph.Complete(n), 1)
			counts[i] = testing.AllocsPerRun(5, func() { s.build(nt) })
		}
		if counts[0] != counts[1] || counts[1] > maxAllocs {
			t.Errorf("%s: the constructor allocated %v times at n = 1024 and %v at n = 4096, want one count ≤ %d",
				s.name, counts[0], counts[1], maxAllocs)
		}
	}
}

// TestFastGossipTokenBytesFlatInRounds: walk tokens come from one slab
// that every round reuses, so running Rounds 4 instead of 1 adds less
// than the bytes the first round's walks take (Rounds 1 against 0).
func TestFastGossipTokenBytesFlatInRounds(t *testing.T) {
	const n = 4096
	g := testGraph(n, 61)
	alloc := func(rounds int) uint64 {
		p := TunedFastGossipParams(n)
		p.Rounds = rounds
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if res := FastGossip(g, p, 7); !res.Completed {
			t.Fatalf("rounds %d: the run did not complete", rounds)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(0) // leaves a released tracker for the runs below
	none, one, four := alloc(0), alloc(1), alloc(4)
	if one <= none {
		t.Fatalf("one round allocated %d bytes, no round %d: the walks took no tokens", one, none)
	}
	if round := one - none; four > one && four-one >= round {
		t.Errorf("rounds 1 → 4 added %d bytes, want < %d (one round's tokens)", four-one, round)
	}
}

// TestFastGossipMallocsBounded: a walk queue is linked through the
// tokens it holds, so a whole FastGossip run allocates the run's fixed
// state plus three objects (token, set, words) per slab slot it fills,
// and it fills about as many as the busiest round starts walks, WalkProb·n
// in expectation. Allowing a quarter more slots, the run at n = 4 096 must
// stay within that at Rounds 1 and at 4. Queues that grew their own
// slices made about one allocation per node a walk visited: 2 660 at
// Rounds 1 and 5 001 at 4.
func TestFastGossipMallocsBounded(t *testing.T) {
	const n = 4096
	g := testGraph(n, 61)
	p := TunedFastGossipParams(n)
	bound := 64 + 3*uint64(1.25*p.WalkProb*n)
	FastGossip(g, p, 7) // leaves a released tracker for the runs below
	for _, rounds := range []int{1, 4} {
		p.Rounds = rounds
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		FastGossip(g, p, 7)
		runtime.ReadMemStats(&after)
		if mallocs := after.Mallocs - before.Mallocs; mallocs > bound {
			t.Errorf("Rounds %d: the run made %d allocations, want ≤ %d", rounds, mallocs, bound)
		}
	}
}
