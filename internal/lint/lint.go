// Package lint implements gossiplint, the repo's own static analysis:
// detlint, the determinism analyzer. Every simulation result must be a
// bit-exact function of (grid, seed), and detlint flags what breaks
// that silently: wall-clock reads and the global math/rand stream
// anywhere in the module and, in the deterministic packages listed in
// DetPackagePaths, an import of a clock, of math/rand or of any
// non-standard package outside that list, scheduler-ordered selects and
// order-sensitive map iteration. The import rule is what keeps a clock
// read in a helper package out of a deterministic result: the helper
// cannot be imported, so no test of the callers has to see it. The
// other invariants (view bytes, seed lineage, lock scope, durability
// errors, goroutine leaks) are checked by tests that exercise them; the
// module's package documentation names each one.
//
// The checker needs nothing beyond the standard library and the
// toolchain: Load lists packages with `go list -deps -export`,
// type-checks the target packages from source and takes every import
// from the gc export data that listing builds.
//
// Intentional violations are suppressed — visibly and auditably — with
// a directive on the offending line or the line directly above it:
//
//	//gossiplint:allow detlint <reason...>
//
// A directive with a missing or unknown analyzer name, or no reason,
// is itself a diagnostic: a suppression must say what it suppresses
// and why, or it fails the build.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// detlintName names the analyzer in diagnostics and in
// //gossiplint:allow directives.
const detlintName = "detlint"

// A pass is detlint's view of one package.
type pass struct {
	*Package
	det   bool // the package is in DetPackagePaths
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: detlintName,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-tolerant shorthand for Info.TypeOf.
func (p *pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// A Diagnostic is one finding, positioned in the source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Check runs detlint over pkgs, applies the //gossiplint:allow
// directives, and returns the surviving diagnostics (including any
// malformed-directive errors) sorted by position.
func Check(pkgs []*Package) []Diagnostic {
	var raw, out []Diagnostic
	allows := make(allowSet)
	for _, pkg := range pkgs {
		p := &pass{Package: pkg, det: IsDeterministicPackage(pkg.Path)}
		runDetLint(p)
		raw = append(raw, p.diags...)
		out = append(out, parseDirectives(pkg.Fset, pkg.Files, allows)...)
	}
	for _, d := range raw {
		if !allows.matches(d) {
			out = append(out, d)
		}
	}
	slices.SortFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer),
		)
	})
	return out
}
