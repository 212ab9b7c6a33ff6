package lint_test

// The fixture harness — the stdlib-only stand-in for
// golang.org/x/tools/go/analysis/analysistest. A fixture is a module
// under testdata/src/<fixture> (its go.mod names the module after the
// directory, so subpackages import as "<fixture>/sub"), loaded with
// lint.Load exactly as the gossiplint gate loads the real tree, so a
// fixture package imports its siblings through the same export data
// the repo's packages do. Diagnostics are matched 1:1 against
// expectation comments of the form
//
//	code() // want "regexp" "second regexp"
//
// Each want pattern must match exactly one diagnostic on its line, and
// every diagnostic must be wanted — extra findings fail the test just
// like missing ones, which is what makes the negative (sanctioned
// pattern) halves of the fixtures load-bearing.

import (
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"gossip/internal/lint"
)

// loadFixture loads every package of the fixture module.
func loadFixture(t *testing.T, fixture string) []*lint.Package {
	t.Helper()
	pkgs, err := lint.Load(filepath.Join("testdata", "src", fixture), "./...")
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixture, err)
	}
	return pkgs
}

// runFixture checks the fixture module and matches the diagnostics
// against its want comments.
func runFixture(t *testing.T, fixture string) {
	t.Helper()
	pkgs := loadFixture(t, fixture)
	checkWants(t, pkgs, lint.Check(pkgs))
}

// wantRe matches one quoted expectation in a want comment — either an
// interpreted string or a raw (backquoted) one, the latter being the
// usual choice since diagnostic patterns are full of regexp escapes.
var wantRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"` + "|`[^`]*`")

// wantLineRe finds the expectation list in a trailing comment.
var wantLineRe = regexp.MustCompile("// want ([\"`].*)$")

// checkWants matches diagnostics from the whole module against want
// comments collected from every loaded package.
func checkWants(t *testing.T, pkgs []*lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantLineRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, q := range wantRe.FindAllString(m[1], -1) {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						}
						k := key{pos.Filename, pos.Line}
						wants[k] = append(wants[k], re)
					}
				}
			}
		}
	}

	for _, d := range diags {
		ws := wants[key{d.Pos.Filename, d.Pos.Line}]
		found := false
		for i, re := range ws {
			if re != nil && re.MatchString(d.Message) {
				ws[i] = nil
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, re := range ws {
			if re != nil {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}
