package lint_test

import (
	"go/types"
	"testing"

	"gossip/internal/lint"
)

// TestModuleSummaries exercises the engine directly over the detlint
// fixture: summary facts must propagate bottom-up through the call
// graph and across the package boundary, and witness chains must name
// the path to the root effect.
func TestModuleSummaries(t *testing.T) {
	pkgs := loadFixture(t, "detlint")
	m := lint.NewModule(pkgs)
	lookup := func(path, name string) *types.Func {
		t.Helper()
		for _, p := range pkgs {
			if p.Path == path {
				if fn, ok := p.Types.Scope().Lookup(name).(*types.Func); ok {
					return fn
				}
			}
		}
		t.Fatalf("fixture function %s.%s not found", path, name)
		return nil
	}

	// Stamp reaches the clock two frames down (Stamp → now → time.Now).
	stamp := lookup("detlint/clockutil", "Stamp")
	if s := m.SummaryOf(stamp); s != lint.FactClock {
		t.Errorf("SummaryOf(Stamp) = %#x, want clock only", s)
	}
	if got, want := m.FactChainString(stamp, lint.FactClock), "clockutil.Stamp → clockutil.now → time.Now"; got != want {
		t.Errorf("FactChainString(Stamp, clock) = %q, want %q", got, want)
	}

	roll := lookup("detlint", "roll")
	if s := m.SummaryOf(roll); s != lint.FactGlobalRand {
		t.Errorf("SummaryOf(roll) = %#x, want global rand only", s)
	}
	if got, want := m.FactChainString(roll, lint.FactGlobalRand), "detlint.roll → rand.Intn"; got != want {
		t.Errorf("FactChainString(roll, rand) = %q, want %q", got, want)
	}

	// A clock-free helper has an empty summary.
	if mix := lookup("detlint/clockutil", "Mix"); !m.HasBody(mix) || m.SummaryOf(mix) != 0 {
		t.Errorf("Mix: HasBody %v, SummaryOf %#x; want a body and no facts", m.HasBody(mix), m.SummaryOf(mix))
	}
}
