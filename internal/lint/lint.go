// Package lint implements gossiplint, the repo's own static analysis:
// detlint, the determinism analyzer. Every simulation result must be a
// bit-exact function of (grid, seed), and detlint flags what breaks
// that silently — wall-clock reads, the global math/rand stream, and,
// in the deterministic packages, scheduler-ordered selects and
// order-sensitive map iteration — including a clock read reached
// through a helper in another package, which no test of the callers
// sees. The other invariants (view bytes, seed lineage, lock scope,
// durability errors, goroutine leaks) are checked by tests that exercise
// them; the module's package documentation names each one.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic) but is built on the standard library
// alone, so the checker needs nothing beyond the toolchain: Load lists
// packages with `go list -deps -export`, type-checks the module's
// packages (everything outside the standard library) from source in
// dependency order, and takes only standard-library imports from gc
// export data — so a call into another package of the module resolves
// to the function the Module summarised, fixtures included. Every
// CheckModule run builds a module-wide call graph with bottom-up
// per-function summary facts (see Module), which detlint uses to flag
// violations reached through call chains, not just direct statements.
//
// Intentional violations are suppressed — visibly and auditably — with
// a directive on the offending line or the line directly above it:
//
//	//gossiplint:allow <analyzer> <reason...>
//
// A directive with a missing or unknown analyzer name, or no reason,
// is itself a diagnostic: a suppression must say what it suppresses
// and why, or it fails the build.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named invariant check. Run inspects a single
// type-checked package through the Pass and reports findings via
// Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //gossiplint:allow directives.
	Name string
	// Run performs the check over one package.
	Run func(*Pass)
}

// A Pass carries one analyzer's view of one package, plus the
// module-wide interprocedural engine (call graph and summary facts)
// shared by every pass of one CheckModule run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Mod      *Module

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-tolerant shorthand for Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// A Diagnostic is one finding, positioned in the source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Suite returns the full gossiplint analyzer suite in report order.
func Suite() []*Analyzer {
	return []*Analyzer{DetLint}
}

// knownAnalyzers is the directive-name universe: a //gossiplint:allow
// must name one of these even when only a subset of the suite runs.
func knownAnalyzers() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Suite() {
		m[a.Name] = true
	}
	return m
}

// CheckModule runs analyzers over every package of the module, applies
// the //gossiplint:allow directives, and returns the surviving
// diagnostics (including any malformed-directive errors) sorted by
// position.
func CheckModule(m *Module, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	var out []Diagnostic
	allows := make(allowSet)
	for _, pkg := range m.Pkgs {
		for _, a := range analyzers {
			p := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Mod:      m,
				diags:    &raw,
			}
			a.Run(p)
		}
		pkgAllows, bad := parseDirectives(pkg.Fset, pkg.Files)
		for file, byLine := range pkgAllows {
			allows[file] = byLine
		}
		out = append(out, bad...)
	}
	for _, d := range raw {
		if allows.matches(d) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return dedupe(out)
}

func dedupe(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d == ds[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
