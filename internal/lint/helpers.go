package lint

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves a call's callee to its types.Func (package-level
// function or method), or nil for builtins, conversions, and calls
// through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcPkgPath returns the import path of the package a function (or
// interface method) is declared in, or "".
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// rootExpr peels selectors, indexes, slices, derefs, and parens down
// to the base expression — for `a.b[i].c`, the identifier `a`.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

// identObj resolves an identifier to its object (use or definition).
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := rootExpr(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// isIntegerType reports whether t is an integer kind — the one class
// of accumulator whose += / ++ is exactly commutative (modular
// arithmetic), unlike floats (rounding depends on order) and strings
// (concatenation order is the result).
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isFloatType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
