package lint_test

import (
	"go/types"
	"testing"

	"gossip/internal/lint"
)

// TestModuleSummaries exercises the engine directly over the lockio
// fixture: summary facts must propagate bottom-up through the call
// graph, and witness chains must name the path to the root effect.
func TestModuleSummaries(t *testing.T) {
	pkgs := loadFixture(t, "lockio")
	m := lint.NewModule(pkgs)
	var pkg *types.Package
	for _, p := range pkgs {
		if p.Path == "lockio" {
			pkg = p.Types
		}
	}
	if pkg == nil {
		t.Fatal("fixture package lockio not loaded")
	}

	wait, ok := pkg.Scope().Lookup("wait").(*types.Func)
	if !ok {
		t.Fatal("fixture function wait not found")
	}
	if s := m.SummaryOf(wait); s != lint.FactBlocks {
		t.Errorf("SummaryOf(wait) = %#x, want blocks only", s)
	}
	if got, want := m.FactChainString(wait, lint.FactBlocks), "lockio.wait → a channel receive"; got != want {
		t.Errorf("FactChainString(wait, blocks) = %q, want %q", got, want)
	}

	// flush reaches the network two frames down (flush → rawWrite →
	// Conn.Write); the summary carries both the I/O and the block.
	srv := pkg.Scope().Lookup("srv").Type()
	for _, name := range []string{"flush", "rawWrite"} {
		obj, _, _ := types.LookupFieldOrMethod(srv, true, pkg, name)
		fn, ok := obj.(*types.Func)
		if !ok {
			t.Fatalf("fixture method srv.%s not found", name)
		}
		if s := m.SummaryOf(fn); s != lint.FactIO|lint.FactBlocks {
			t.Errorf("SummaryOf(srv.%s) = %#x, want doesIO|blocks", name, s)
		}
	}

	// A function outside the module falls back to the curated table.
	if m.HasBody(wait) != true {
		t.Errorf("HasBody(wait) = false, want true")
	}
}
