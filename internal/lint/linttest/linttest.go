// Package linttest is gossiplint's fixture harness — the stdlib-only
// stand-in for golang.org/x/tools/go/analysis/analysistest. A fixture
// is a directory under testdata/src: every .go file in it (and in each
// subdirectory, loaded as its own importable package) is parsed and
// type-checked against the real standard library, the whole fixture
// tree is analyzed as ONE module — so interprocedural summaries flow
// across fixture packages exactly as they do across the real repo —
// and the resulting diagnostics are matched 1:1 against expectation
// comments of the form
//
//	code() // want "regexp" "second regexp"
//
// Each want pattern must match exactly one diagnostic on its line, and
// every diagnostic must be wanted — extra findings fail the test just
// like missing ones, which is what makes the negative (sanctioned
// pattern) halves of the fixtures load-bearing.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"gossip/internal/lint"
)

// Run analyzes the fixture package testdata/src/<fixture> plus its
// subdirectory packages — together, as one module — with the given
// analyzers and matches diagnostics against the fixtures' want
// comments.
func Run(t *testing.T, testdata, fixture string, analyzers ...*lint.Analyzer) {
	t.Helper()
	root := filepath.Join(testdata, "src")
	pkgs := LoadModule(t, root, packageDirs(t, root, fixture)...)
	diags := lint.CheckModule(lint.NewModule(pkgs), analyzers)
	checkWants(t, pkgs, diags)
}

// LoadModule loads the named fixture packages into one shared FileSet
// with full type info, resolving imports against sibling fixture
// packages first and the standard library's export data second. The
// returned packages share identity with importer-resolved ones, so
// lint.NewModule over the result sees every body.
func LoadModule(t *testing.T, root string, paths ...string) []*lint.Package {
	t.Helper()
	l := newFixtureLoader(t, root)
	var pkgs []*lint.Package
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			t.Fatalf("load fixture %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// packageDirs lists fixture and every subdirectory that holds .go
// files, as slash-separated import paths relative to root.
func packageDirs(t *testing.T, root, fixture string) []string {
	t.Helper()
	var dirs []string
	err := filepath.Walk(filepath.Join(root, fixture), func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if ents, _ := filepath.Glob(filepath.Join(path, "*.go")); len(ents) > 0 {
				rel, rerr := filepath.Rel(root, path)
				if rerr != nil {
					return rerr
				}
				dirs = append(dirs, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk fixture %s: %v", fixture, err)
	}
	sort.Strings(dirs)
	return dirs
}

// fixtureLoader loads fixture packages with one shared FileSet,
// caching by import path so a package reached both directly and via an
// import resolves to the same *lint.Package (and therefore the same
// type objects and Info maps).
type fixtureLoader struct {
	t       *testing.T
	root    string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*lint.Package
	loading map[string]bool
}

func newFixtureLoader(t *testing.T, root string) *fixtureLoader {
	fset := token.NewFileSet()
	return &fixtureLoader{
		t:       t,
		root:    root,
		fset:    fset,
		std:     stdImporter(t, root, fset),
		pkgs:    map[string]*lint.Package{},
		loading: map[string]bool{},
	}
}

func (l *fixtureLoader) load(path string) (*lint.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("fixture import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	files, err := parseDir(l.fset, filepath.Join(l.root, filepath.FromSlash(path)))
	if err != nil {
		return nil, err
	}
	pkg, err := lint.TypeCheck(path, l.fset, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import makes the loader a types.Importer: fixture-relative paths are
// loaded from source, everything else comes from std export data.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return l.std.Import(path)
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return files, nil
}

// stdImporter builds (once per test binary) an export-data importer
// covering every non-fixture import mentioned anywhere under root.
var stdExports map[string]string

func stdImporter(t *testing.T, root string, fset *token.FileSet) types.Importer {
	t.Helper()
	if stdExports == nil {
		paths := map[string]bool{}
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || filepath.Ext(path) != ".go" {
				return err
			}
			f, perr := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if perr != nil {
				return perr
			}
			for _, imp := range f.Imports {
				p, uerr := strconv.Unquote(imp.Path.Value)
				if uerr != nil {
					return uerr
				}
				if st, serr := os.Stat(filepath.Join(root, filepath.FromSlash(p))); serr == nil && st.IsDir() {
					continue // a fixture sibling, not a std package
				}
				paths[p] = true
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan fixture imports: %v", err)
		}
		var list []string
		for p := range paths {
			list = append(list, p)
		}
		sort.Strings(list)
		stdExports, err = lint.ExportData(".", list...)
		if err != nil {
			t.Fatalf("std export data: %v", err)
		}
	}
	return lint.NewExportImporter(fset, stdExports)
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

	matched := map[key]int{}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		ws := wants[k]
		found := false
		for i, re := range ws {
			if re != nil && re.MatchString(d.Message) {
				ws[i] = nil
				matched[k]++
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
