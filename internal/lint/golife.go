package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// golife enforces the daemon packages' goroutine-lifetime discipline:
// every goroutine a daemon spawns must have a *visible* lifetime bound,
// so that shutdown can wait for it instead of leaking it into the next
// test. A bound is any of the shutdown idioms already used in-tree:
//
//   - a sync.WaitGroup Done call (typically deferred) in the body;
//   - a close(...) of a done channel in the body;
//   - a channel receive (<-done, <-ctx.Done()) or a select with a
//     receive case, which parks the goroutine on a cancellation signal;
//   - a range over a channel, which exits when the feeder closes it.
//
// The spawned body is resolved through the module engine: `go func()
// {...}` inspects the literal, `go c.serveNode(nd)` inspects
// serveNode's declaration one frame down. A spawn whose body cannot be
// seen at all (an external function, a stored function value) is
// flagged — if the analyzer cannot see the bound, neither can a
// reviewer.
//
// A second, sharper check: calling WaitGroup.Add *inside* the spawned
// goroutine races the matching Wait — Wait can observe the counter at
// zero before the goroutine runs Add. Add must happen before the go
// statement, on the spawning side.

// LifetimePackagePaths lists the packages held to the goroutine
// lifetime discipline — the long-running daemons, where a leaked
// goroutine outlives its cluster.
var LifetimePackagePaths = []string{
	"gossip/internal/gossipd",
	"gossip/internal/corpusd",
}

// IsLifetimePackage reports whether path is held to the goroutine
// lifetime discipline.
func IsLifetimePackage(path string) bool {
	for _, p := range LifetimePackagePaths {
		if path == p {
			return true
		}
	}
	return false
}

// GoLife is the goroutine-lifetime analyzer.
var GoLife = &Analyzer{
	Name: "golife",
	Doc: "flag go statements in the daemon packages whose spawned body has no visible lifetime bound " +
		"(WaitGroup.Done, done-channel close, channel receive, or channel range), and WaitGroup.Add calls made inside the spawned goroutine",
	Run: runGoLife,
}

func runGoLife(p *Pass) {
	if !IsLifetimePackage(p.Pkg.Path()) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(p, gs)
			return true
		})
	}
}

func checkGoStmt(p *Pass, gs *ast.GoStmt) {
	// Resolve the spawned body: a literal is inspected in place; a named
	// in-module function is inspected one frame down via the engine.
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		if !hasLifetimeBound(p.Info, lit.Body) {
			p.Reportf(gs.Pos(), "spawned goroutine has no visible lifetime bound; give it a WaitGroup.Done, a done-channel close, or a cancellation receive so shutdown can wait for it")
		}
		checkSpawnedAdds(p.Info, lit.Body, func(pos token.Pos, recv string) {
			p.Reportf(pos, "%s.Add inside the spawned goroutine races the matching Wait; call Add before the go statement", recv)
		})
		return
	}
	fn := calleeFunc(p.Info, gs.Call)
	if fn == nil || p.Mod == nil || !p.Mod.HasBody(fn) {
		p.Reportf(gs.Pos(), "cannot see the body of the function spawned here; spawn a literal or an in-module function so the goroutine's lifetime bound is visible")
		return
	}
	decl := p.Mod.FuncDecl(fn)
	info := infoFor(p, fn)
	// Diagnostics stay at the go statement: the spawned declaration may
	// live in another package of the module.
	if !hasLifetimeBound(info, decl.Body) {
		p.Reportf(gs.Pos(), "goroutine spawned as %s has no visible lifetime bound in its body; give it a WaitGroup.Done, a done-channel close, or a cancellation receive so shutdown can wait for it", DisplayFunc(fn))
	}
	checkSpawnedAdds(info, decl.Body, func(pos token.Pos, recv string) {
		p.Reportf(gs.Pos(), "%s, spawned here, calls %s.Add in its body, which races the matching Wait; call Add before the go statement", DisplayFunc(fn), recv)
	})
}

// infoFor returns the type info of the package declaring fn — the
// spawned function may live in a different package than the spawner.
func infoFor(p *Pass, fn *types.Func) *types.Info {
	if p.Mod != nil {
		if d := p.Mod.decls[fn]; d != nil {
			return d.pkg.Info
		}
	}
	return p.Info
}

// hasLifetimeBound reports whether the body contains any of the
// recognized shutdown idioms. Nested function literals are not
// descended into — a bound inside a different goroutine bounds that
// goroutine, not this one.
func hasLifetimeBound(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					found = true
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
			if fn := calleeFunc(info, n); fn != nil && fn.Name() == "Done" && funcPkgPath(fn) == "sync" {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkSpawnedAdds reports every sync WaitGroup Add call inside the
// spawned body via report(pos, receiverExpr).
func checkSpawnedAdds(info *types.Info, body *ast.BlockStmt, report func(token.Pos, string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil || fn.Name() != "Add" || funcPkgPath(fn) != "sync" {
				return true
			}
			recv := "WaitGroup"
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				recv = types.ExprString(sel.X)
			}
			report(n.Pos(), recv)
		}
		return true
	})
}
