package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The interprocedural engine. A Module is every loaded package viewed
// as one call graph, with a bottom-up summary — a small bitset of
// effect Facts — computed for every function that has a body. The
// summaries are what let detlint and lockio flag *transitive*
// violations (a mutex held across a call chain that reaches
// net.Conn.Write three frames down; a deterministic package calling a
// helper that reads the clock) and what seedflow consults to reject a
// seed laundered through a clock-reading helper.
//
// Facts for out-of-module callees come from a small curated table of
// standard-library roots (extFuncFacts / extMethodFacts / extPkgFacts);
// an external function the table does not know contributes nothing, so
// the engine errs toward silence, never toward invented effects. Calls
// through interface methods and stored function values likewise
// contribute nothing — the analyzers that need those cases handle them
// locally (detlint's function-value bindings).
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
	// FactIO: the function can reach network or subprocess I/O
	// (package net, net/http, os/exec).
	FactIO Facts = 1 << iota
	// FactClock: the function can read the wall clock
	// (time.Now/Since/Until).
	FactClock
	// FactGlobalRand: the function can draw from the global
	// math/rand stream.
	FactGlobalRand
	// FactBlocks: the function can block — time.Sleep, channel send or
	// receive, blocking select, range over a channel, WaitGroup.Wait,
	// or anything with FactIO.
	FactBlocks
)

// Has reports whether f contains any of the bits in q.
func (f Facts) Has(q Facts) bool { return f&q != 0 }

// extFuncFacts assigns facts to specific out-of-module package-level
// functions (receiver-less), keyed by "importpath.Name".
var extFuncFacts = map[string]Facts{
	"time.Now":   FactClock,
	"time.Since": FactClock,
	"time.Until": FactClock,
	"time.Sleep": FactBlocks,
}

// extMethodFacts assigns facts to specific out-of-module methods,
// keyed by "importpath.Recv.Name" with the pointer stripped.
var extMethodFacts = map[string]Facts{
	"sync.WaitGroup.Wait": FactBlocks,
	"sync.Cond.Wait":      FactBlocks,
}

// extPkgFacts assigns facts to every function and method of an
// out-of-module package — the packages whose entire API is the effect.
var extPkgFacts = map[string]Facts{
	"net":      FactIO | FactBlocks,
	"net/http": FactIO | FactBlocks,
	"os/exec":  FactIO | FactBlocks,
}

// ExtFacts returns the curated summary for an out-of-module function
// or method, or 0 for one the table does not know.
func ExtFacts(fn *types.Func) Facts {
	if fn == nil {
		return 0
	}
	path := funcPkgPath(fn)
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	if sig.Recv() == nil {
		if f, ok := extFuncFacts[path+"."+fn.Name()]; ok {
			return f
		}
		if path == "math/rand" || path == "math/rand/v2" {
			if !randConstructors[fn.Name()] {
				return FactGlobalRand
			}
			return 0
		}
	} else if rn := recvTypeName(sig); rn != "" {
		if f, ok := extMethodFacts[path+"."+rn+"."+fn.Name()]; ok {
			return f
		}
	}
	return extPkgFacts[path]
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
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return ""
	}
	return ""
}

// DisplayFunc renders a function for diagnostics and witness chains:
// "time.Now", "gossipd.Serve", "net.Conn.Write", "cluster.call".
// Methods show Recv.Name; the package name prefixes out-of-module
// functions and receiver-less functions.
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

// calleeRef is one static call site inside a function body.
type calleeRef struct {
	fn  *types.Func
	pos token.Pos
}

// factReason records how a function acquired one fact bit: either
// directly (root describes the source — an external call, a channel
// operation) or through an in-module callee (via).
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
	callees []calleeRef
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

// scanFunc records a function's direct facts and static callees.
// Function literals are descended into only when they execute as part
// of this function (immediately invoked, or deferred); a literal
// merely spawned or stored runs elsewhere and contributes nothing.
func (m *Module) scanFunc(d *declInfo) {
	info := d.pkg.Info
	inline := map[*ast.FuncLit]bool{}
	selectComms := map[ast.Node]bool{}
	seen := map[*types.Func]bool{}
	seed := func(f Facts, root string) {
		for bit := Facts(1); bit != 0; bit <<= 1 {
			if f.Has(bit) && !d.direct.Has(bit) {
				d.direct |= bit
				d.reasons[bit] = factReason{root: root}
			}
		}
	}
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
				d.callees = append(d.callees, calleeRef{fn, n.Pos()})
			}
		case *ast.SendStmt:
			if !selectComms[n] {
				seed(FactBlocks, "a channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !selectComms[n] {
				seed(FactBlocks, "a channel receive")
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm == nil {
					hasDefault = true
					continue
				}
				selectComms[cc.Comm] = true
				if as, ok := cc.Comm.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
					selectComms[ast.Unparen(as.Rhs[0])] = true
				}
				if es, ok := cc.Comm.(*ast.ExprStmt); ok {
					selectComms[ast.Unparen(es.X)] = true
				}
			}
			if !hasDefault {
				seed(FactBlocks, "a blocking select")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					seed(FactBlocks, "a range over a channel")
				}
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
			cd := m.decls[c.fn]
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
				if cd := m.decls[c.fn]; cd != nil {
					facts |= cd.facts // final for other SCCs, partial (direct) within — the union below covers the rest
					facts |= cd.direct
				} else {
					f := ExtFacts(c.fn)
					facts |= f
					// An external call is as direct as a channel op:
					// record it as this function's own reason.
					for bit := Facts(1); bit != 0; bit <<= 1 {
						if f.Has(bit) && !d.direct.Has(bit) {
							d.direct |= bit
							d.reasons[bit] = factReason{root: DisplayFunc(c.fn)}
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
				cd := m.decls[c.fn]
				if cd == nil || !cd.facts.Has(bit) {
					continue
				}
				if cd.scc != d.scc {
					d.reasons[bit] = factReason{via: c.fn}
					break
				}
				if inSCC == nil {
					inSCC = c.fn
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
// to the root that introduced it: ["cluster.call", "net.Dial"]. The
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
