package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockio enforces gossipd's "per-node mutex is never held across I/O"
// rule. A node's mutex serializes machine callbacks; holding it across
// a network call, a sleep, or a blocking channel operation turns one
// slow peer into a stalled node (and, transitively, a stalled
// cluster), and under the race job it hides scheduler-order bugs
// behind lock convoys.
//
// Lock tracking approximates control flow by source order within each
// function: after seeing x.Lock() (sync package method), x counts as
// held until x.Unlock(); defer x.Unlock() holds x to the end of the
// function. While anything is held, the analyzer flags: calls into
// package net (dials, conn reads/writes, accepts), time.Sleep, channel
// sends and receives, selects without a default (blocking), and
// formatting into a network writer (fmt.Fprintf to an
// http.ResponseWriter or net.Conn). Function literals are not
// descended into — they execute elsewhere.
//
// On top of the direct checks, the module engine's summaries make the
// rule transitive: a call to an in-module function that *reaches*
// network I/O or a blocking operation any number of frames down is
// flagged at the call site, with a witness chain in the message.

// LockIO is the mutex-across-I/O analyzer.
var LockIO = &Analyzer{
	Name: "lockio",
	Run:  runLockIO,
}

func runLockIO(p *Pass) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockedRegions(p, fd.Body)
		}
	}
}

const (
	opNone = iota
	opLock
	opUnlock
)

// mutexOp classifies a call as a sync lock/unlock and returns the
// receiver key ("nd.mu"); it recognizes sync.Mutex, sync.RWMutex, and
// types embedding them (the method's declaring package is sync).
func mutexOp(info *types.Info, call *ast.CallExpr) (string, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	fn := calleeFunc(info, call)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return "", opNone
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return key, opLock
	case "Unlock", "RUnlock":
		return key, opUnlock
	}
	return "", opNone
}

func checkLockedRegions(p *Pass, body *ast.BlockStmt) {
	held := map[string]bool{}
	// Channel operations that are a select clause's comm statement are
	// judged at the select level (blocking or not), not individually.
	selectComms := map[ast.Node]bool{}
	heldName := func() string {
		for k := range held {
			// Reporting any one held mutex is enough; in practice a
			// region holds exactly one.
			return k
		}
		return ""
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if _, kind := mutexOp(p.Info, n.Call); kind == opUnlock {
				// Deferred unlock: the mutex stays held for the rest of
				// the function; leave it in the held set.
				return false
			}
			return true
		case *ast.GoStmt:
			return false
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
			if len(held) > 0 && !hasDefault {
				p.Reportf(n.Pos(), "blocking select while %s is held; release the mutex before waiting", heldName())
			}
			return true
		case *ast.SendStmt:
			if len(held) > 0 && !selectComms[n] {
				p.Reportf(n.Pos(), "channel send while %s is held; release the mutex before communicating", heldName())
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 && !selectComms[n] {
				p.Reportf(n.Pos(), "channel receive while %s is held; release the mutex before communicating", heldName())
			}
		case *ast.CallExpr:
			if key, kind := mutexOp(p.Info, n); kind != opNone {
				if kind == opLock {
					held[key] = true
				} else {
					delete(held, key)
				}
				return true
			}
			if len(held) > 0 {
				checkHeldCall(p, n, heldName())
			}
		}
		return true
	})
}

// fmtWriterFuncs are the fmt functions whose first argument is the
// io.Writer the formatted bytes go to.
var fmtWriterFuncs = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}

// isNetWriterType reports whether t is a writer from the networked
// world — a net.Conn, an http.ResponseWriter — so that formatting into
// it is network I/O even though the callee is fmt or io.
func isNetWriterType(t types.Type) bool {
	switch typePkgPath(t) {
	case "net", "net/http":
		return true
	}
	return false
}

func checkHeldCall(p *Pass, call *ast.CallExpr, mutex string) {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return
	}
	switch funcPkgPath(fn) {
	case "time":
		if fn.Name() == "Sleep" {
			p.Reportf(call.Pos(), "time.Sleep while %s is held stalls every contender; release the mutex before sleeping", mutex)
		}
	case "net", "net/http":
		p.Reportf(call.Pos(), "network I/O (%s.%s) while %s is held; per the gossipd rule, mutexes are never held across I/O", funcPkgPath(fn), fn.Name(), mutex)
	case "fmt":
		if fmtWriterFuncs[fn.Name()] && len(call.Args) > 0 && isNetWriterType(p.TypeOf(call.Args[0])) {
			p.Reportf(call.Pos(), "fmt.%s into a network writer while %s is held is network I/O under the lock; render to a buffer and write it after unlocking", fn.Name(), mutex)
		}
	case "io":
		if (fn.Name() == "WriteString" || fn.Name() == "Copy") && len(call.Args) > 0 && isNetWriterType(p.TypeOf(call.Args[0])) {
			p.Reportf(call.Pos(), "io.%s into a network writer while %s is held is network I/O under the lock; render to a buffer and write it after unlocking", fn.Name(), mutex)
		}
	default:
		// The interprocedural half: an in-module callee whose summary
		// reaches network I/O or can block stalls every contender just
		// as surely as a direct net call — this is the laundering an
		// intraprocedural checker cannot see.
		if !p.Mod.HasBody(fn) {
			return
		}
		s := p.Mod.SummaryOf(fn)
		switch {
		case s.Has(FactIO):
			p.Reportf(call.Pos(), "call to %s while %s is held transitively reaches network I/O (%s); per the gossipd rule, mutexes are never held across I/O",
				DisplayFunc(fn), mutex, p.Mod.FactChainString(fn, FactIO))
		case s.Has(FactBlocks):
			p.Reportf(call.Pos(), "call to %s while %s is held can block (%s); release the mutex before waiting",
				DisplayFunc(fn), mutex, p.Mod.FactChainString(fn, FactBlocks))
		}
	}
}
