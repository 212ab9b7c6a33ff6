package phone

import (
	"testing"
	"testing/quick"

	"gossip/internal/xrand"
)

// TestQuickIncomingPartitionsDialers: the inverted index must list every
// dialer exactly once, under its callee.
func TestQuickIncomingPartitionsDialers(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(200)
		r := NewRound(n)
		dials := 0
		for v := 0; v < n; v++ {
			if rng.Bernoulli(0.7) {
				r.Out[v] = int32(rng.Intn(n))
				dials++
			}
		}
		r.BuildIncoming()
		seen := 0
		for u := int32(0); int(u) < n; u++ {
			for _, caller := range r.Incoming(u) {
				if r.Out[caller] != u {
					return false
				}
				seen++
			}
		}
		return seen == dials
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickInDegreeSumsToDials: Σ len(Incoming) == number of open channels.
func TestQuickInDegreeSumsToDials(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(100)
		r := NewRound(n)
		dials := 0
		for v := 0; v < n; v++ {
			if rng.Bernoulli(0.5) {
				r.Out[v] = int32(rng.Intn(n))
				dials++
			}
		}
		r.BuildIncoming()
		sum := 0
		for u := int32(0); int(u) < n; u++ {
			sum += len(r.Incoming(u))
		}
		return sum == dials
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRoundReuseAcrossSteps: Reset + rebuild must fully clear prior state.
func TestRoundReuseAcrossSteps(t *testing.T) {
	r := NewRound(8)
	r.Out[1] = 2
	r.Out[3] = 2
	r.BuildIncoming()
	if len(r.Incoming(2)) != 2 {
		t.Fatal("setup wrong")
	}
	r.Reset()
	r.Out[4] = 5
	r.BuildIncoming()
	if len(r.Incoming(2)) != 0 {
		t.Error("stale incoming survived Reset")
	}
	if len(r.Incoming(5)) != 1 || r.Incoming(5)[0] != 4 {
		t.Error("rebuild wrong")
	}
}
