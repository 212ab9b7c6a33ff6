package phone

import (
	"slices"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/xrand"
)

// avoidMachine mostly dials DialAvoid, failed or not; by (id + step) mod 7
// it keeps its channel closed or dials its successor instead, so that
// resolved and unresolved dials share every chunk.
type avoidMachine struct {
	id int32
	nt *Net
}

func (m avoidMachine) OnStep(step int32) (int32, any, any) {
	switch (m.id + step) % 7 {
	case 3:
		return NoDial, nil, nil
	case 5:
		return (m.id + 1) % int32(m.nt.G.N()), nil, nil
	}
	return DialAvoid, nil, nil
}

func (avoidMachine) OnReceive(int32, any) {}
func (avoidMachine) OnStepEnd(int32)      {}
func (m avoidMachine) Net() *Net          { return m.nt }

func avoidMachines(nt *Net) []Machine {
	ms := make([]Machine, nt.G.N())
	for v := range ms {
		ms[v] = avoidMachine{id: int32(v), nt: nt}
	}
	return ms
}

// openAvoidRef is the open-avoid dial as the machines once drew it inside
// OnStep, written out whole: up to 32 rejection draws, then the exact scan.
// fallback reports whether the scan ran and found a neighbour.
func openAvoidRef(nt *Net, v int32) (u int32, fallback bool) {
	d := nt.G.Degree(v)
	if nt.Failed[v] || d == 0 {
		return NoDial, false
	}
	rng, avoid := nt.RNG(v), nt.Memory[v].Links()
	u = NoDial
	for range 32 {
		if w := nt.G.Neighbor(v, int(rng.Uint64n(uint64(d)))); !slices.Contains(avoid, w) {
			u = w
			break
		}
	}
	if u == NoDial {
		var rest []int32
		for k := range d {
			if w := nt.G.Neighbor(v, k); !slices.Contains(avoid, w) {
				rest = append(rest, w)
			}
		}
		if len(rest) == 0 {
			return NoDial, false
		}
		u, fallback = rest[rng.Intn(len(rest))], true
	}
	nt.Memory[v].Remember(u)
	return u, fallback
}

// TestDialAvoidMatchesOpenAvoid requires every transport's DialAvoid to
// dial what the open-avoid reference dials, and to leave every node's
// memory and stream where it leaves them: Sync at its own par.For chunks
// and at uneven chunk bounds, a seeded schedule, Net.Resolve and
// Net.OpenAvoid. The nodes 4, 15, 26, … have failed. Besides a CSR
// G(n,p), K_n and a configuration-model multigraph, the graphs are a
// sparse one with isolated nodes whose 2-slot memories fill, so a node
// dials NoDial after its draws, and one where nodes 0 and 1 share 60
// parallel edges and each has one more neighbour: with a 1-slot memory,
// remembering the other sends most of their draws to the exact fallback
// scan.
func TestDialAvoidMatchesOpenAvoid(t *testing.T) {
	parallel := []graph.Edge{{U: 0, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}}
	for range 60 {
		parallel = append(parallel, graph.Edge{U: 0, V: 1})
	}
	cases := []struct {
		name string
		g    *graph.Graph
		c    int // memory slots
	}{
		{"er", graph.ErdosRenyi(600, 0.02, xrand.New(1)), MemorySlots},
		{"complete", graph.Complete(300), MemorySlots},
		{"multigraph", graph.ConfigurationModel(200, 7, xrand.New(5)), MemorySlots},
		{"sparse", graph.FromEdges(10, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 6, V: 6}}), 2},
		{"fallback", graph.FromEdges(4, parallel), 1},
	}
	const seed = 13
	for _, tc := range cases {
		n := tc.g.N()
		net := func() *Net {
			nt := NewNet(tc.g, seed)
			nt.InitMemory(tc.c)
			for v := 4; v < n; v += 11 {
				nt.Failed[v] = true
			}
			return nt
		}
		bounds := [][]int{
			{0, n},
			{0, 1, 2, n/2 + 1, n - 1, n},
			{0, n / 3, n / 3, 2*n/3 + 1, n},
		}
		ref := net()
		chunked := NewSync(avoidMachines(net()))
		stepped := NewSync(avoidMachines(net()))
		seeded := NewSeeded(avoidMachines(net()), seed)
		resolved, opened := net(), net()
		var fallbacks, full int
		for step := int32(1); step <= 12; step++ {
			chunked.step = step
			b := bounds[int(step)%len(bounds)]
			for i := 0; i+1 < len(b); i++ {
				chunked.dial(b[i], b[i+1])
			}
			stepped.Step(step)
			seeded.Step(step)
			for v := int32(0); int(v) < n; v++ {
				dial, _, _ := avoidMachine{id: v, nt: ref}.OnStep(step)
				want := dial
				if dial == DialAvoid {
					var fb bool
					want, fb = openAvoidRef(ref, v)
					if fb {
						fallbacks++
					}
					if want == NoDial && !ref.Failed[v] && ref.G.Degree(v) > 0 {
						full++
					}
				}
				got := [...]int32{chunked.round.Out[v], stepped.round.Out[v], seeded.round.Out[v], resolved.Resolve(v, dial), dial}
				if dial == DialAvoid {
					got[4] = opened.OpenAvoid(v)
				}
				for i, name := range [...]string{"Sync chunked", "Sync.Step", "seeded", "Resolve", "OpenAvoid"} {
					if got[i] != want {
						t.Fatalf("%s, step %d, node %d: %s dialed %d, the reference %d", tc.name, step, v, name, got[i], want)
					}
				}
			}
		}
		for v := int32(0); int(v) < n; v++ {
			for i, nt := range []*Net{chunked.nt, stepped.nt, seeded.nt, resolved, opened} {
				if *nt.RNG(v) != *ref.RNG(v) || nt.Memory[v] != ref.Memory[v] {
					t.Fatalf("%s: node %d's stream or memory differs from the reference's (Net %d)", tc.name, v, i)
				}
			}
		}
		switch {
		case tc.name == "fallback" && fallbacks == 0:
			t.Error("fallback: no draw reached the exact fallback scan")
		case tc.name == "sparse" && full == 0:
			t.Error("sparse: no node found every neighbour remembered")
		}
	}
}
