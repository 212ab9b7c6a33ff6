package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// The loader: gossiplint's stdlib-only replacement for
// golang.org/x/tools/go/packages. `go list -deps -export -json` both
// enumerates the target packages and compiles export data for every
// dependency (the build cache makes this cheap after the first run).
// Each non-standard target is then parsed from source — detlint needs
// syntax and comments — and type-checked against one gc export-data
// importer, which serves every import, so all of a target's paths to a
// package name one *types.Package.

// A Package is one loaded, type-checked target.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	std map[string]bool // the listed standard-library paths
}

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
}

// Load resolves patterns (e.g. "./...") in dir via the go tool and
// returns the matched packages parsed and type-checked. Test files are
// not loaded: the invariants gossiplint enforces are about shipped
// code, and tests legitimately use wall clocks and scratch writers.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	std := make(map[string]bool)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		std[p.ImportPath] = p.Standard
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
	var pkgs []*Package
	for _, p := range listed {
		if p.Standard || p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", name, err)
			}
			files = append(files, f)
		}
		pkg, err := typeCheck(p.ImportPath, fset, files, imp)
		if err != nil {
			return nil, err
		}
		pkg.std = std
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck type-checks one package's parsed files and wraps the
// result as a lint.Package with the Info maps detlint uses.
func typeCheck(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// goList runs `go list -deps -export -json` over patterns in dir and
// returns every listed package, dependencies before their importers.
func goList(dir string, patterns []string) ([]listPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %w\n%s", patterns, err, stderr.Bytes())
	}
	var listed []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			return listed, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: parse go list output: %w", err)
		}
		listed = append(listed, p)
	}
}
