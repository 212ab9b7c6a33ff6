package lint

import (
	"go/ast"
	"go/types"
)

// viewenc enforces the byte-identity invariant behind the CLI/daemon
// no-drift guarantee: corpus view types (RunSummary, RunDetail,
// ReportView, CompareResult, Trend, …) are serialized by exactly one
// encoder — corpus.WriteJSON — so `gossipsim … -json` and the corpusd
// HTTP endpoints can never disagree about bytes. Any other
// json.Marshal / json.MarshalIndent / (*json.Encoder).Encode of a view
// type is a second encoder waiting to drift (indentation, trailing
// newline, HTML escaping) and is flagged.
//
// The check looks through pointers, slices, arrays, and map values to
// the named type, so encoding []RunSummary or *RunDetail is caught
// too. The canonical encoder itself — a function named WriteJSON in a
// package named corpus — is exempt.

// ViewTypeNames are the corpus view types covered by the byte-identity
// invariant, matched in any package named "corpus" or "corpusd".
var ViewTypeNames = map[string]bool{
	"GenInfo":       true,
	"RunSummary":    true,
	"RunDetail":     true,
	"ReportView":    true,
	"CompareResult": true,
	"Trend":         true,
	"TrendPoint":    true,
	"Comparison":    true,
}

// viewPkgNames are the package *names* (not paths) whose types the
// view set is drawn from; matching by name lets the fixture packages
// under testdata stand in for the real ones.
var viewPkgNames = map[string]bool{"corpus": true, "corpusd": true}

// ViewEnc is the canonical-encoder analyzer.
var ViewEnc = &Analyzer{
	Name: "viewenc",
	Run:  runViewEnc,
}

func runViewEnc(p *Pass) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "WriteJSON" && p.Pkg.Name() == "corpus" {
				continue // the canonical encoder itself
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkViewEncode(p, call)
				return true
			})
		}
	}
}

func checkViewEncode(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || len(call.Args) == 0 {
		return
	}
	var how string
	switch {
	case isPkgFunc(fn, "encoding/json", "Marshal"):
		how = "json.Marshal"
	case isPkgFunc(fn, "encoding/json", "MarshalIndent"):
		how = "json.MarshalIndent"
	case fn.Name() == "Encode" && funcPkgPath(fn) == "encoding/json":
		how = "(*json.Encoder).Encode"
	default:
		return
	}
	if name, ok := viewTypeOf(p.TypeOf(call.Args[0])); ok {
		p.Reportf(call.Pos(), "%s of corpus view type %s bypasses the canonical encoder; route it through corpus.WriteJSON so CLI and daemon bytes cannot drift", how, name)
	}
}

// viewTypeOf looks through pointers, slices, arrays, and map values
// for a named corpus view type and returns its display name.
func viewTypeOf(t types.Type) (string, bool) {
	for depth := 0; t != nil && depth < 8; depth++ {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			n, ok := t.(*types.Named)
			if !ok || n.Obj().Pkg() == nil {
				return "", false
			}
			if viewPkgNames[n.Obj().Pkg().Name()] && ViewTypeNames[n.Obj().Name()] {
				return n.Obj().Pkg().Name() + "." + n.Obj().Name(), true
			}
			return "", false
		}
	}
	return "", false
}
