package lint

import (
	"go/ast"
	"go/types"
)

// seedflow enforces the seed-lineage invariant in the deterministic
// packages: every explicitly seeded RNG must derive its seed from the
// sanctioned lineage — a function parameter (the caller decides), a
// struct field (the configuration decides), or the derivation chain
// itself (xrand.SeedFor, runner.CellSeed). The three ways a seed
// silently breaks (grid, seed)-reproducibility are flagged:
//
//   - a literal or named constant ("xrand.New(42)"): every run shares
//     one stream, so reps are not independent and sweep cells collide;
//   - a package-level variable: the seed is ambient state, invisible
//     to the run's manifest;
//   - a clock-derived value ("uint64(time.Now().UnixNano())"), even
//     when the clock read is laundered through an in-module helper —
//     the module engine's summaries catch stamp() → time.Now chains.
//
// The analysis is an intraprocedural def-use walk: a local variable is
// traced through every assignment to it inside the function. Values
// the checker cannot see — captured outer variables, results of
// unclassified calls — stay silent: the analyzer errs toward quiet.

// SeedFlow is the seed-lineage analyzer.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Run:  runSeedFlow,
}

// rngSeedArgs maps RNG constructors — keyed by package *name* and
// function or method name, so fixture stand-ins match like the real
// packages — to the indices of their seed arguments.
var rngSeedArgs = map[string][]int{
	"xrand.New":       {0},
	"xrand.Reseed":    {0}, // method (*RNG).Reseed
	"rand.NewSource":  {0}, // math/rand and math/rand/v2 are both named rand
	"rand.NewPCG":     {0, 1},
	"rand.NewChaCha8": {0},
}

// rngPassThrough names constructors whose argument is itself a seeded
// source (rand.New(rand.NewSource(x))): the argument is analyzed with
// the same rules, so a sanctioned inner constructor passes through.
var rngPassThrough = map[string]bool{"rand.New": true}

// seedLineageFuncs are the sanctioned derivation roots: an expression
// containing a call to one of these is lineage-derived by definition.
var seedLineageFuncs = map[string]bool{
	"xrand.SeedFor":   true,
	"runner.CellSeed": true,
}

// seedKey renders a called function as pkgName.Name (methods too — the
// receiver type is irrelevant for the small curated tables above).
func seedKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

func runSeedFlow(p *Pass) {
	if !IsDeterministicPackage(p.Pkg.Path()) {
		return
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSeedFlow(p, fd)
		}
	}
}

// seedVerdict classifies one seed expression.
type seedVerdict struct {
	ok  bool   // mentions a sanctioned source
	bad string // first disqualifying source found ("" if none)
}

func checkSeedFlow(p *Pass, fd *ast.FuncDecl) {
	sf := &seedFlow{p: p, fd: fd}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.Info, call)
		key := seedKey(fn)
		args, isCtor := rngSeedArgs[key]
		if !isCtor {
			return true
		}
		for _, i := range args {
			if i >= len(call.Args) {
				continue
			}
			v := sf.classify(call.Args[i], 0, map[types.Object]bool{})
			if !v.ok && v.bad != "" {
				p.Reportf(call.Args[i].Pos(), "%s seeded from %s; seeds in deterministic packages must flow from a parameter, a struct field, or the xrand.SeedFor/runner.CellSeed lineage", key, v.bad)
			}
		}
		return true
	})
}

// seedFlow carries the per-function def-use state.
type seedFlow struct {
	p  *Pass
	fd *ast.FuncDecl

	assigns map[types.Object][]ast.Expr // lazily built: local var → RHS exprs
}

// paramObjs collects the function's parameters and receiver — the
// caller-supplied lineage sources.
func (sf *seedFlow) isParam(o types.Object) bool {
	v, ok := o.(*types.Var)
	if !ok {
		return false
	}
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if sf.p.Info.Defs[name] == v {
					return true
				}
			}
		}
		return false
	}
	return check(sf.fd.Recv) || check(sf.fd.Type.Params)
}

// assignmentsOf finds every expression assigned to o inside the
// function (:=, =, and var declarations).
func (sf *seedFlow) assignmentsOf(o types.Object) []ast.Expr {
	if sf.assigns == nil {
		sf.assigns = map[types.Object][]ast.Expr{}
		ast.Inspect(sf.fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := sf.p.Info.Defs[id]
					if obj == nil {
						obj = sf.p.Info.Uses[id]
					}
					if obj != nil {
						sf.assigns[obj] = append(sf.assigns[obj], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, name := range n.Names {
					if obj := sf.p.Info.Defs[name]; obj != nil {
						sf.assigns[obj] = append(sf.assigns[obj], n.Values[i])
					}
				}
			}
			return true
		})
	}
	return sf.assigns[o]
}

// classify walks a seed expression collecting evidence. A single
// sanctioned source anywhere in the expression clears it (mixing a
// constant into a parameter-derived seed is fine); otherwise the first
// disqualifying source condemns it; an expression with neither stays
// silent.
func (sf *seedFlow) classify(e ast.Expr, depth int, visiting map[types.Object]bool) seedVerdict {
	if depth > 8 {
		return seedVerdict{}
	}
	var v seedVerdict
	condemn := func(why string) {
		if v.bad == "" {
			v.bad = why
		}
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if v.ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(sf.p.Info, n)
			key := seedKey(fn)
			switch {
			case seedLineageFuncs[key]:
				v.ok = true
				return false
			case rngPassThrough[key]:
				return true // descend: the inner constructor's own check applies
			case fn != nil:
				if sf.p.Mod.SummaryOf(fn).Has(FactClock) {
					if sf.p.Mod.HasBody(fn) {
						condemn("the wall clock via " + sf.p.Mod.FactChainString(fn, FactClock))
					} else {
						condemn("the wall clock (" + DisplayFunc(fn) + ")")
					}
					return false
				}
				// An unclassified call: its arguments may still carry
				// lineage (binary.BigEndian.Uint64(seedBytes) — unknown,
				// stays silent; xrand.SeedFor nested deeper — found by
				// descending).
				return true
			}
		case *ast.BasicLit:
			condemn("a literal")
		case *ast.Ident:
			obj := sf.p.Info.Uses[n]
			if obj == nil {
				return true
			}
			switch o := obj.(type) {
			case *types.Const:
				condemn("the constant " + o.Name())
			case *types.Var:
				switch {
				case o.IsField():
					v.ok = true
				case sf.isParam(o):
					v.ok = true
				case o.Parent() == sf.p.Pkg.Scope():
					condemn("the package-level variable " + o.Name())
				default:
					if visiting[o] {
						return true
					}
					visiting[o] = true
					as := sf.assignmentsOf(o)
					for _, rhs := range as {
						av := sf.classify(rhs, depth+1, visiting)
						if av.ok {
							v.ok = true
							break
						}
						if av.bad != "" {
							condemn(av.bad + " (assigned to " + o.Name() + ")")
						}
					}
					delete(visiting, o)
				}
			}
		case *ast.SelectorExpr:
			// A field read (cfg.Seed, s.seed) is configuration-derived.
			if sel, ok := sf.p.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				v.ok = true
				return false
			}
			return true
		}
		return !v.ok
	})
	return v
}
