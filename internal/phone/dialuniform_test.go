package phone

import (
	"slices"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/xrand"
)

// uniformMachine mostly dials DialUniform; by (id + step) mod 7 it keeps
// its channel closed or dials its successor instead, so that resolved and
// unresolved dials share every chunk.
type uniformMachine struct {
	id int32
	nt *Net
}

func (m uniformMachine) OnStep(step int32) (int32, any, any) {
	switch (m.id + step) % 7 {
	case 3:
		return NoDial, nil, nil
	case 5:
		return (m.id + 1) % int32(m.nt.G.N()), nil, nil
	}
	return DialUniform, nil, nil
}

func (uniformMachine) OnReceive(int32, any) {}
func (uniformMachine) OnStepEnd(int32)      {}
func (m uniformMachine) Net() *Net          { return m.nt }
func (m uniformMachine) want(step int32) int32 { // the dial, drawn as the machines once drew it
	dial, _, _ := m.OnStep(step)
	if dial == DialUniform {
		return m.nt.G.RandomNeighbor(m.id, m.nt.RNG(m.id))
	}
	return dial
}

func uniformMachines(nt *Net) []Machine {
	ms := make([]Machine, nt.G.N())
	for v := range ms {
		ms[v] = uniformMachine{id: int32(v), nt: nt}
	}
	return ms
}

// TestDialUniformMatchesRandomNeighbor requires every transport's DialUniform
// to dial what a per-node Graph.RandomNeighbor draw dials, and to leave
// every node's stream where those draws leave it: Sync at its own par.For
// chunks and at chunk bounds that split the nodes unevenly (an empty chunk
// and one-node chunks included), a seeded schedule, and Net.Resolve. The graphs are a
// CSR G(n,p), the implicit K_n, a graph with isolated and degree-1 nodes,
// and a configuration-model multigraph with loops.
func TestDialUniformMatchesRandomNeighbor(t *testing.T) {
	multi := graph.ConfigurationModel(200, 7, xrand.New(5))
	loops := 0
	for v := int32(0); int(v) < multi.N(); v++ {
		if slices.Contains(multi.Neighbors(v), v) {
			loops++
		}
	}
	if loops == 0 {
		t.Fatal("the multigraph has no loop: re-pick its seed")
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", graph.ErdosRenyi(600, 0.02, xrand.New(1))},
		{"complete", graph.Complete(300)},
		{"sparse", graph.FromEdges(10, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 6, V: 6}})},
		{"multigraph", multi},
	}
	const seed = 11
	for _, tc := range graphs {
		n := tc.g.N()
		bounds := [][]int{
			{0, n},
			{0, 1, 2, n/2 + 1, n - 1, n},
			{0, n / 3, n / 3, 2*n/3 + 1, n},
		}
		ref := NewNet(tc.g, seed)
		chunked := NewSync(uniformMachines(NewNet(tc.g, seed)))
		stepped := NewSync(uniformMachines(NewNet(tc.g, seed)))
		seeded := NewSeeded(uniformMachines(NewNet(tc.g, seed)), seed)
		resolved := NewNet(tc.g, seed)
		for step := int32(1); step <= 9; step++ {
			chunked.step = step
			chunked.round.Reset()
			b := bounds[int(step)%len(bounds)]
			for i := 0; i+1 < len(b); i++ {
				chunked.dial(b[i], b[i+1])
			}
			stepped.Step(step)
			seeded.Step(step)
			for v := int32(0); int(v) < n; v++ {
				want := uniformMachine{id: v, nt: ref}.want(step)
				dial, _, _ := uniformMachine{id: v, nt: resolved}.OnStep(step)
				got := [...]int32{chunked.round.Out[v], stepped.round.Out[v], seeded.round.Out[v], resolved.Resolve(v, dial)}
				for i, name := range [...]string{"Sync chunked", "Sync.Step", "seeded", "Resolve"} {
					if got[i] != want {
						t.Fatalf("%s, step %d, node %d: %s dialed %d, RandomNeighbor %d", tc.name, step, v, name, got[i], want)
					}
				}
			}
		}
		for v := int32(0); int(v) < n; v++ {
			for i, nt := range []*Net{chunked.nt, stepped.nt, seeded.nt, resolved} {
				if *nt.RNG(v) != *ref.RNG(v) {
					t.Fatalf("%s: node %d's stream differs from the reference's (transport %d)", tc.name, v, i)
				}
			}
		}
	}
}

// TestDialUniformWithoutNetPanics: a DialUniform on a transport none of
// whose machines names a Net panics with the documented message.
func TestDialUniformWithoutNetPanics(t *testing.T) {
	for name, dial := range map[string]func(){
		"Sync": func() {
			NewSync([]Machine{&funcMachine{onStep: func(int32) (int32, any) { return DialUniform, nil }}}).Step(1)
		},
		"Resolve": func() { (*Net)(nil).Resolve(0, DialUniform) },
	} {
		func() {
			defer func() {
				if r := recover(); r != noNet {
					t.Errorf("%s: recovered %v, want %q", name, r, noNet)
				}
			}()
			dial()
		}()
	}
	if got := (*Net)(nil).Resolve(3, 7); got != 7 {
		t.Errorf("a nil Net resolved dial 7 to %d", got)
	}
}
