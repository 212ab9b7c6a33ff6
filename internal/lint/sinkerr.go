package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// sinkerr enforces the fsync-durability invariant from the corpus
// layer: an error from Close, Flush, or Sync on a writer is the moment
// the filesystem reports that buffered data did not reach disk, and
// dropping it turns a torn run into a "successful" one. The analyzer
// flags dropped errors from those methods when the receiver is a
// writer (implements io.Writer, or is one of the repo's own sink
// types in SinkTypes).
//
// Sanctioned patterns that stay silent:
//
//   - error-path cleanup: a bare x.Close() is fine when the same
//     function also has a *checked* Close/Flush/Sync on x — the
//     disciplined corpus idiom (close-and-discard on the error path,
//     checked close on the success path);
//   - read-only files: defer f.Close() where f came from os.Open in
//     the same function (nothing buffered, nothing to lose);
//   - network connections (package net/net/http receivers): closing a
//     conn is teardown, not corpus durability.
//
// Assigning the error to blank (_ = f.Close()) still counts as
// dropped: the invariant wants the error handled, not hidden; use
// //gossiplint:allow sinkerr <reason> for a genuinely ignorable site.

// SinkTypes names repo-local writer types (by "pkgpath.TypeName") that
// feed the corpus but do not expose a Write method, so the structural
// io.Writer test alone would miss them.
var SinkTypes = map[string]bool{
	"gossip/internal/corpus.Writer":       true,
	"gossip/internal/runner.OrderedJSONL": true,
}

// SinkErr is the dropped-durability-error analyzer.
var SinkErr = &Analyzer{
	Name: "sinkerr",
	Run:  runSinkErr,
}

var sinkErrMethods = map[string]bool{"Close": true, "Flush": true, "Sync": true}

// writerIface is a synthesized io.Writer for structural checks,
// avoiding a dependency on having the io package in every pass.
var writerIface *types.Interface

func init() {
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
		), false)
	writerIface = types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "Write", sig),
	}, nil)
	writerIface.Complete()
}

func runSinkErr(p *Pass) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSinkErrs(p, fd.Body)
		}
	}
}

// sinkCall matches a Close/Flush/Sync method call returning an error
// and yields its receiver expression key.
func sinkCall(info *types.Info, call *ast.CallExpr) (key string, recv ast.Expr, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, "", false
	}
	fn := calleeFunc(info, call)
	if fn == nil || !sinkErrMethods[fn.Name()] {
		return "", nil, "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", nil, "", false
	}
	res := sig.Results()
	if res.Len() == 0 || !types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
		return "", nil, "", false
	}
	return types.ExprString(sel.X), sel.X, fn.Name(), true
}

func checkSinkErrs(p *Pass, body *ast.BlockStmt) {
	type drop struct {
		call *ast.CallExpr
		key  string
		recv ast.Expr
		name string
	}
	var (
		drops    []drop
		checked  = map[string]bool{} // receivers with a checked Close/Flush/Sync
		readOnly = map[string]bool{} // receivers opened via os.Open
		dropped  = map[*ast.CallExpr]bool{}
	)
	note := func(call *ast.CallExpr) {
		if key, recv, name, ok := sinkCall(p.Info, call); ok {
			drops = append(drops, drop{call, key, recv, name})
			dropped[call] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				note(call)
			}
		case *ast.DeferStmt:
			note(n.Call)
		case *ast.GoStmt:
			note(n.Call)
		case *ast.AssignStmt:
			allBlank := len(n.Lhs) > 0
			for _, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
				}
			}
			if allBlank {
				for _, r := range n.Rhs {
					if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
						note(call)
					}
				}
			}
			// Track read-only opens: x, err := os.Open(...).
			if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if fn := calleeFunc(p.Info, call); isPkgFunc(fn, "os", "Open") {
						readOnly[types.ExprString(n.Lhs[0])] = true
					}
				}
			}
		}
		return true
	})
	// Second walk: any sink call not recorded as dropped is checked.
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !dropped[call] {
			if key, _, _, ok := sinkCall(p.Info, call); ok {
				checked[key] = true
			}
		}
		return true
	})

	for _, d := range drops {
		if checked[d.key] || readOnly[d.key] {
			continue
		}
		t := p.TypeOf(d.recv)
		if t == nil || !isDurableWriter(t) {
			continue
		}
		p.Reportf(d.call.Pos(), "error from %s.%s dropped; the fsync-durability invariant requires checking writer Close/Flush/Sync errors (or //gossiplint:allow sinkerr <why>)", d.key, d.name)
	}
}

// isDurableWriter reports whether t is a writer whose teardown errors
// carry durability information: anything with a Write method (except
// net/http connections) plus the repo's own SinkTypes.
func isDurableWriter(t types.Type) bool {
	switch typePkgPath(t) {
	case "net", "net/http":
		return false
	}
	if n := namedDeref(t); n != nil && n.Obj().Pkg() != nil {
		if SinkTypes[n.Obj().Pkg().Path()+"."+n.Obj().Name()] {
			return true
		}
	}
	return types.Implements(t, writerIface) || types.Implements(types.NewPointer(t), writerIface)
}
