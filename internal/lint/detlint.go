package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
)

// detlint enforces the determinism invariant: every simulation result
// in the corpus must be a pure function of (grid, seed), because the
// zero-tolerance regression gates, byte-identical resumes, and
// same-revision dedupe all compare bytes. Three things break that
// silently: wall-clock reads, the global math/rand stream, and Go's
// randomized scheduling/iteration orders.
//
// The wall-clock and global-rand call checks run module-wide — a stray
// time.Now anywhere can leak into a manifest or a metric. The packages
// listed in DetPackagePaths, where "the scheduler picked differently"
// means "the result changed", are held to more: they may not import
// time, math/rand or math/rand/v2, nor any non-standard package outside
// the list, so a clock read cannot reach them through a helper; and
// their multi-case selects and order-sensitive ranges over maps are
// flagged.

// DetPackagePaths lists the packages whose results must be bit-exact
// functions of their seeds. Extend it when a new package joins the
// deterministic core.
var DetPackagePaths = []string{
	"gossip/internal/asciiplot",
	"gossip/internal/bitset",
	"gossip/internal/core",
	"gossip/internal/exp",
	"gossip/internal/graph",
	"gossip/internal/msg",
	"gossip/internal/par",
	"gossip/internal/phone",
	"gossip/internal/runner",
	"gossip/internal/stats",
	"gossip/internal/sweep",
	"gossip/internal/walk",
	"gossip/internal/xrand",
}

// IsDeterministicPackage reports whether path is held to the full
// determinism contract (import rule and scheduler-order checks).
func IsDeterministicPackage(path string) bool {
	return slices.Contains(DetPackagePaths, path)
}

// randConstructors are the math/rand functions that build an
// explicitly seeded generator rather than drawing from the global
// stream; they are not themselves nondeterministic (though the repo's
// sanctioned source is internal/xrand).
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

const (
	clockAdvice = "results must be functions of (grid, seed) — derive timestamps from provenance or annotate //gossiplint:allow detlint <why>"
	randAdvice  = "use internal/xrand with an explicit seed"
)

func runDetLint(p *pass) {
	for _, f := range p.Files {
		if p.det {
			checkImports(p, f)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFuncValueBindings(p, n.Body)
				}
			case *ast.CallExpr:
				if fn := calleeFunc(p.Info, n); fn != nil {
					if effect, advice := nondet(fn); effect != "" {
						p.Reportf(n.Pos(), "%s.%s %s; %s", fn.Pkg().Path(), fn.Name(), effect, advice)
					}
				}
			case *ast.SelectStmt:
				if p.det {
					checkSelect(p, n)
				}
			case *ast.RangeStmt:
				if p.det {
					checkMapRange(p, n)
				}
			}
			return true
		})
	}
}

// checkImports applies the import rule to one file of a deterministic
// package. A finding lands on the import line, where a directive can
// allow it.
func checkImports(p *pass, f *ast.File) {
	for _, spec := range f.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		switch {
		case path == "time":
			p.Reportf(spec.Path.Pos(), "deterministic package imports %q, the wall clock; %s", path, clockAdvice)
		case path == "math/rand" || path == "math/rand/v2":
			p.Reportf(spec.Path.Pos(), "deterministic package imports %q, the global random stream; %s", path, randAdvice)
		case !p.std[path] && !IsDeterministicPackage(path):
			p.Reportf(spec.Path.Pos(), "deterministic package imports %q, which is not in DetPackagePaths; import only the standard library and deterministic packages", path)
		}
	}
}

// nondet reports what a call to fn does to a deterministic result —
// reads the wall clock or draws from the global math/rand stream — and
// the advice that goes with it; effect is "" when fn does neither.
func nondet(fn *types.Func) (effect, advice string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return "", ""
	}
	switch funcPkgPath(fn) {
	case "time":
		if name := fn.Name(); name == "Now" || name == "Since" || name == "Until" {
			return "reads the wall clock", clockAdvice
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return "draws from the global math/rand stream", randAdvice
		}
	}
	return "", ""
}

// checkFuncValueBindings catches nondeterminism laundered through
// function values: t := time.Now; t(). A local bound to a wall-clock
// or global-rand function is flagged at every call through it.
func checkFuncValueBindings(p *pass, body *ast.BlockStmt) {
	bound := map[types.Object]*types.Func{}
	record := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		var fn *types.Func
		switch e := ast.Unparen(rhs).(type) {
		case *ast.Ident:
			fn, _ = p.Info.Uses[e].(*types.Func)
		case *ast.SelectorExpr:
			fn, _ = p.Info.Uses[e.Sel].(*types.Func)
		}
		if fn == nil {
			return
		}
		if effect, _ := nondet(fn); effect != "" {
			bound[obj] = fn
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	if len(bound) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if fn := bound[p.Info.Uses[id]]; fn != nil {
			effect, advice := nondet(fn)
			p.Reportf(call.Pos(), "call through %s reaches %s.%s, which %s; %s", id.Name, fn.Pkg().Path(), fn.Name(), effect, advice)
		}
		return true
	})
}

func checkSelect(p *pass, sel *ast.SelectStmt) {
	comm := 0
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comm++
		}
	}
	if comm >= 2 {
		p.Reportf(sel.Pos(), "select with %d communication cases resolves by scheduler readiness when several are ready — nondeterministic in a deterministic package", comm)
	}
}

// checkMapRange flags range-over-map loops whose bodies have
// order-sensitive effects. The sanctioned pattern — extract the keys,
// sort, iterate the sorted slice — is recognized and stays silent:
// a body that only appends the key to an outer slice is the extraction
// step, and writes into an outer map are keyed (order-free) too.
// Exactly-commutative integer accumulation (n++, n += v) is also fine;
// float and string accumulation is not, because the result bits depend
// on the order.
func checkMapRange(p *pass, rng *ast.RangeStmt) {
	t := p.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}

	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := p.Info.Defs[id]; o != nil {
				loopVars[o] = true
			} else if o := p.Info.Uses[id]; o != nil {
				loopVars[o] = true
			}
		}
	}
	var keyObj types.Object
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		if keyObj = p.Info.Defs[id]; keyObj == nil {
			keyObj = p.Info.Uses[id]
		}
	}
	// local: declared inside the loop (including the loop variables).
	local := func(o types.Object) bool {
		return o == nil || loopVars[o] || (o.Pos() >= rng.Pos() && o.Pos() <= rng.End())
	}
	// bodyLocal excludes the loop variables themselves: used by the
	// key-extraction exemption, where the key is fine (it gets sorted)
	// but appending the *value* is an order-sensitive collection.
	bodyLocal := func(o types.Object) bool {
		return o == nil || (o.Pos() >= rng.Body.Pos() && o.Pos() <= rng.Body.End())
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(p, n, keyObj, local, bodyLocal)
		case *ast.IncDecStmt:
			o := identObj(p.Info, n.X)
			if !local(o) && isFloatType(p.TypeOf(n.X)) {
				p.Reportf(n.Pos(), "float update of %s inside range over map: accumulation order changes the rounding; iterate sorted keys", types.ObjectString(o, nil))
			}
		case *ast.SendStmt:
			p.Reportf(n.Pos(), "channel send inside range over map emits elements in nondeterministic order; iterate sorted keys")
		case *ast.CallExpr:
			checkMapRangeSink(p, n, local)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if exprMentions(p.Info, res, loopVars) {
					p.Reportf(n.Pos(), "return of a loop variable inside range over map picks an arbitrary element; iterate sorted keys")
					break
				}
			}
		}
		return true
	})
}

func checkMapRangeAssign(p *pass, as *ast.AssignStmt, keyObj types.Object, local, bodyLocal func(types.Object) bool) {
	if as.Tok == token.DEFINE {
		return
	}
	if as.Tok != token.ASSIGN {
		// Op-assignments: exactly-commutative integer accumulation is
		// order-free; float and string accumulation is not.
		for _, lhs := range as.Lhs {
			o := identObj(p.Info, lhs)
			if local(o) {
				continue
			}
			if t := p.TypeOf(lhs); isIntegerType(t) && as.Tok != token.SHL_ASSIGN && as.Tok != token.SHR_ASSIGN {
				continue
			}
			p.Reportf(as.Pos(), "order-sensitive accumulation into %s inside range over map; iterate sorted keys", nameOf(o))
		}
		return
	}
	for i, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		// A keyed write into an outer map is order-insensitive.
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if bt := p.TypeOf(ix.X); bt != nil {
				if _, isMap := bt.Underlying().(*types.Map); isMap {
					continue
				}
			}
		}
		o := identObj(p.Info, lhs)
		if local(o) {
			continue
		}
		// The sanctioned extraction step: keys = append(keys, k).
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 && isKeyExtraction(p, as.Rhs[i], o, keyObj, bodyLocal) {
			continue
		}
		p.Reportf(as.Pos(), "write to %s inside range over map happens in nondeterministic order; iterate sorted keys", nameOf(o))
	}
}

// isKeyExtraction reports whether rhs is append(dst, args...) where
// dst is the assigned variable and every appended value depends only
// on the loop key (or loop-local state) — the first half of the
// sorted-keys idiom.
func isKeyExtraction(p *pass, rhs ast.Expr, dst, keyObj types.Object, local func(types.Object) bool) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || p.Info.Uses[id] != types.Universe.Lookup("append") {
		return false
	}
	if identObj(p.Info, call.Args[0]) != dst {
		return false
	}
	for _, arg := range call.Args[1:] {
		ok := true
		ast.Inspect(arg, func(n ast.Node) bool {
			id, isIdent := n.(*ast.Ident)
			if !isIdent {
				return true
			}
			o := p.Info.Uses[id]
			if v, isVar := o.(*types.Var); isVar && o != keyObj && !local(v) {
				ok = false
			}
			return ok
		})
		if !ok {
			return false
		}
	}
	return true
}

// sinkMethods are writer-shaped methods: calling one on state that
// outlives the loop emits bytes/records in map order.
var sinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteRecord": true, "Encode": true,
}

var fmtPrinters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func checkMapRangeSink(p *pass, call *ast.CallExpr, local func(types.Object) bool) {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return
	}
	if funcPkgPath(fn) == "fmt" && fmtPrinters[fn.Name()] {
		p.Reportf(call.Pos(), "fmt.%s inside range over map prints in nondeterministic order; iterate sorted keys", fn.Name())
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !sinkMethods[fn.Name()] {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if o := identObj(p.Info, sel.X); !local(o) {
		p.Reportf(call.Pos(), "%s.%s inside range over map writes elements in nondeterministic order; iterate sorted keys", nameOf(o), fn.Name())
	}
}

// exprMentions reports whether e references any of the given objects.
func exprMentions(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

func nameOf(o types.Object) string {
	if o == nil {
		return "an outer variable"
	}
	return o.Name()
}
