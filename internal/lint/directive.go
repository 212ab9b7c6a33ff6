package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The suppression directive. A comment of the form
//
//	//gossiplint:allow <analyzer> <reason...>
//
// names the analyzer it silences (detlint, the only one) and
// suppresses its diagnostics on the directive's own line and on the
// line immediately below it (so it works both trailing a statement and
// standing alone above one). The reason is mandatory: every
// suppression in the tree must say why the invariant does not apply,
// which is what makes the exceptions auditable with a grep.
const directivePrefix = "//gossiplint:"

// allowSet holds the file lines that carry a well-formed directive.
type allowSet map[allowLine]bool

type allowLine struct {
	file string
	line int
}

// matches reports whether d is suppressed by a directive on its line
// or the line above.
func (s allowSet) matches(d Diagnostic) bool {
	return s[allowLine{d.Pos.Filename, d.Pos.Line}] || s[allowLine{d.Pos.Filename, d.Pos.Line - 1}]
}

// parseDirectives scans the package's comments for gossiplint
// directives. Well-formed allows land in allows; malformed ones — wrong
// verb, unknown analyzer, missing reason — come back as diagnostics
// attributed to the "gossiplint" pseudo-analyzer, which no directive
// can suppress.
func parseDirectives(fset *token.FileSet, files []*ast.File, allows allowSet) []Diagnostic {
	var bad []Diagnostic
	report := func(pos token.Pos, msg string) {
		bad = append(bad, Diagnostic{Pos: fset.Position(pos), Analyzer: "gossiplint", Message: msg})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 || fields[0] != "allow" {
					report(c.Pos(), "unknown gossiplint directive (only //gossiplint:allow <analyzer> <reason> is recognized)")
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), "gossiplint:allow needs an analyzer name and a reason")
					continue
				}
				analyzer := fields[1]
				if analyzer != detlintName {
					report(c.Pos(), "gossiplint:allow names unknown analyzer "+analyzer)
					continue
				}
				if len(fields) < 3 {
					report(c.Pos(), "gossiplint:allow "+analyzer+" is missing its reason — suppressions must say why")
					continue
				}
				pos := fset.Position(c.Pos())
				allows[allowLine{pos.Filename, pos.Line}] = true
			}
		}
	}
	return bad
}
