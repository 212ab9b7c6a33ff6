package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The interprocedural engine. A Module is every loaded package viewed
// as one call graph, with a bottom-up summary — a small bitset of
// effect Facts — computed for every function that has a body. The
// summaries are what let detlint flag *transitive* violations: a
// deterministic package calling a helper that reads the clock, however
// many frames and package boundaries down.
//
// Facts for out-of-module callees come from a small curated table of
// standard-library roots (extFuncFacts and the math/rand stream); an
// external function the table does not know contributes nothing, so
// the engine errs toward silence, never toward invented effects. Calls
// through interface methods and stored function values likewise
// contribute nothing — detlint handles function-value bindings locally.
//
// Summaries propagate bottom-up over the SCC condensation of the call
// graph: Tarjan emits each strongly connected component after all the
// components it calls into, so one pass suffices — an SCC's facts are
// the union of its members' direct facts and the (already final) facts
// of callees outside the component. Mutually recursive functions
// therefore share one summary, which over-approximates but never
// misses.

// Facts is a bitset of function effect summaries.
type Facts uint8

const (
	// FactClock: the function can read the wall clock
	// (time.Now/Since/Until).
	FactClock Facts = 1 << iota
	// FactGlobalRand: the function can draw from the global
	// math/rand stream.
	FactGlobalRand
)

// Has reports whether f contains any of the bits in q.
func (f Facts) Has(q Facts) bool { return f&q != 0 }

// extFuncFacts assigns facts to specific out-of-module package-level
// functions (receiver-less), keyed by "importpath.Name".
var extFuncFacts = map[string]Facts{
	"time.Now":   FactClock,
	"time.Since": FactClock,
	"time.Until": FactClock,
}

// ExtFacts returns the curated summary for an out-of-module function,
// or 0 for one the table does not know. Methods have none: the clock
// and the global stream are package-level functions.
func ExtFacts(fn *types.Func) Facts {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return 0
	}
	switch path := funcPkgPath(fn); path {
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return FactGlobalRand
		}
		return 0
	default:
		return extFuncFacts[path+"."+fn.Name()]
	}
}

// recvTypeName returns the bare name of a method's receiver type,
// pointer stripped, or "".
func recvTypeName(sig *types.Signature) string {
	if sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// DisplayFunc renders a function for diagnostics and witness chains:
// "time.Now", "clockutil.Stamp". Methods show Recv.Name; the package
// name prefixes receiver-less functions.
func DisplayFunc(fn *types.Func) string {
	if fn == nil {
		return "?"
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok {
		if rn := recvTypeName(sig); rn != "" {
			return rn + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// factReason records how a function acquired one fact bit: either
// directly (root names the external call) or through an in-module
// callee (via).
type factReason struct {
	via  *types.Func
	root string
}

// declInfo is the engine's per-function record.
type declInfo struct {
	fn      *types.Func
	pkg     *Package
	decl    *ast.FuncDecl
	direct  Facts
	facts   Facts
	callees []*types.Func        // static callees, each once
	reasons map[Facts]factReason // keyed by single bits

	// Tarjan bookkeeping.
	index, lowlink int
	onStack        bool
	scc            int
}

// A Module is the interprocedural view over a set of loaded packages:
// the call graph of every function with a body plus its computed
// summary facts.
type Module struct {
	Pkgs  []*Package
	decls map[*types.Func]*declInfo
	order []*declInfo // deterministic iteration order (source position)
}

// NewModule builds the call graph and computes summaries bottom-up
// over the SCC condensation.
func NewModule(pkgs []*Package) *Module {
	m := &Module{Pkgs: pkgs, decls: make(map[*types.Func]*declInfo)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				di := &declInfo{fn: fn, pkg: pkg, decl: fd, reasons: map[Facts]factReason{}, index: -1}
				m.decls[fn] = di
				m.order = append(m.order, di)
			}
		}
	}
	for _, d := range m.order {
		m.scanFunc(d)
	}
	m.propagate()
	return m
}

// scanFunc records a function's static callees. Function literals are
// descended into only when they execute as part of this function
// (immediately invoked, or deferred); a literal merely spawned or stored
// runs elsewhere and contributes nothing.
func (m *Module) scanFunc(d *declInfo) {
	info := d.pkg.Info
	inline := map[*ast.FuncLit]bool{}
	seen := map[*types.Func]bool{}
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return inline[n]
		case *ast.GoStmt:
			return false // the spawned body's effects are not this goroutine's
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				inline[lit] = true // runs before this function returns
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				inline[lit] = true // immediately invoked
			}
			if fn := calleeFunc(info, n); fn != nil && !seen[fn] {
				seen[fn] = true
				d.callees = append(d.callees, fn)
			}
		}
		return true
	})
}

// propagate computes final facts bottom-up over Tarjan's SCCs, which
// are emitted callees-first, then fills in per-function fact reasons.
func (m *Module) propagate() {
	var (
		counter  int
		sccCount int
		stack    []*declInfo
	)
	var sccs [][]*declInfo
	var strongconnect func(d *declInfo)
	strongconnect = func(d *declInfo) {
		d.index, d.lowlink = counter, counter
		counter++
		stack = append(stack, d)
		d.onStack = true
		for _, c := range d.callees {
			cd := m.decls[c]
			if cd == nil {
				continue
			}
			if cd.index < 0 {
				strongconnect(cd)
				if cd.lowlink < d.lowlink {
					d.lowlink = cd.lowlink
				}
			} else if cd.onStack && cd.index < d.lowlink {
				d.lowlink = cd.index
			}
		}
		if d.lowlink == d.index {
			var scc []*declInfo
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				w.scc = sccCount
				scc = append(scc, w)
				if w == d {
					break
				}
			}
			sccCount++
			sccs = append(sccs, scc)
		}
	}
	for _, d := range m.order {
		if d.index < 0 {
			strongconnect(d)
		}
	}

	// Tarjan emits an SCC only after every SCC it calls into, so a
	// single pass in emission order sees final callee facts.
	for _, scc := range sccs {
		var facts Facts
		for _, d := range scc {
			facts |= d.direct
			for _, c := range d.callees {
				if cd := m.decls[c]; cd != nil {
					facts |= cd.facts // final for other SCCs, partial (direct) within — the union below covers the rest
					facts |= cd.direct
				} else {
					f := ExtFacts(c)
					facts |= f
					// An external call is this function's own reason.
					for bit := Facts(1); bit != 0; bit <<= 1 {
						if f.Has(bit) && !d.direct.Has(bit) {
							d.direct |= bit
							d.reasons[bit] = factReason{root: DisplayFunc(c)}
						}
					}
				}
			}
		}
		for _, d := range scc {
			d.facts = facts
		}
	}

	// Reasons for propagated bits: prefer the function's own direct
	// source, then the first callee outside this SCC carrying the bit
	// (guaranteed loop-free), then an in-SCC callee.
	for _, d := range m.order {
		for bit := Facts(1); bit != 0; bit <<= 1 {
			if !d.facts.Has(bit) {
				continue
			}
			if _, ok := d.reasons[bit]; ok {
				continue
			}
			var inSCC *types.Func
			for _, c := range d.callees {
				cd := m.decls[c]
				if cd == nil || !cd.facts.Has(bit) {
					continue
				}
				if cd.scc != d.scc {
					d.reasons[bit] = factReason{via: c}
					break
				}
				if inSCC == nil {
					inSCC = c
				}
			}
			if _, ok := d.reasons[bit]; !ok && inSCC != nil {
				d.reasons[bit] = factReason{via: inSCC}
			}
		}
	}
}

// HasBody reports whether fn is declared with a body in this module —
// i.e. the engine computed a real summary for it.
func (m *Module) HasBody(fn *types.Func) bool { return m.decls[fn] != nil }

// SummaryOf returns fn's computed summary, falling back to the curated
// external table for functions without a body in the module.
func (m *Module) SummaryOf(fn *types.Func) Facts {
	if d := m.decls[fn]; d != nil {
		return d.facts
	}
	return ExtFacts(fn)
}

// FactChain reconstructs a witness path for one fact bit, from fn down
// to the root that introduced it: ["clockutil.Stamp", "clockutil.now",
// "time.Now"]. The
// chain is for humans; it is one deterministic witness, not the only
// path.
func (m *Module) FactChain(fn *types.Func, fact Facts) []string {
	chain := []string{DisplayFunc(fn)}
	seen := map[*types.Func]bool{fn: true}
	for {
		d := m.decls[fn]
		if d == nil {
			return chain
		}
		r, ok := d.reasons[fact]
		if !ok {
			return chain
		}
		if r.via == nil {
			if r.root != "" {
				chain = append(chain, r.root)
			}
			return chain
		}
		if seen[r.via] {
			return append(chain, "…")
		}
		seen[r.via] = true
		chain = append(chain, DisplayFunc(r.via))
		fn = r.via
	}
}

// ChainString renders a witness chain for a diagnostic message.
func ChainString(chain []string) string { return strings.Join(chain, " → ") }

// FactChainString is the common FactChain+ChainString composition.
func (m *Module) FactChainString(fn *types.Func, fact Facts) string {
	return ChainString(m.FactChain(fn, fact))
}
