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
// dependency (the build cache makes this cheap after the first run);
// the targets themselves are then parsed from source — analyzers need
// syntax and comments — and type-checked against that export data via
// go/importer's gc importer with a lookup function.

// A Package is one loaded, type-checked target.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// Load resolves patterns (e.g. "./...") in dir via the go tool and
// returns the matched packages parsed and type-checked. Test files are
// not loaded: the invariants gossiplint enforces are about shipped
// code, and tests legitimately use wall clocks and scratch writers.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	exports, targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := NewExportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", name, err)
			}
			files = append(files, f)
		}
		pkg, err := TypeCheck(t.ImportPath, fset, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// TypeCheck type-checks one package's parsed files and wraps the
// result as a lint.Package with the Info maps the analyzers use.
func TypeCheck(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*Package, error) {
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

// NewExportImporter returns a types.Importer that resolves import
// paths through a path→export-data-file map (as produced by
// `go list -export`), with "unsafe" short-circuited to types.Unsafe.
func NewExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	base := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
	return &exportImporter{base: base}
}

type exportImporter struct {
	base types.Importer
}

func (i *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.base.Import(path)
}

// ExportData runs `go list -deps -export -json` over the given import
// paths and returns the path→export-file map for them and all their
// dependencies. The fixture test harness uses this to type-check
// testdata packages against the real standard library.
func ExportData(dir string, paths ...string) (map[string]string, error) {
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	exports, _, err := goList(dir, paths)
	return exports, err
}

// goList runs `go list -deps -export -json` over patterns in dir and
// returns the import path → export data file map of every listed
// package, plus the packages the patterns matched (not DepOnly).
func goList(dir string, patterns []string) (map[string]string, []listPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list %v: %w\n%s", patterns, err, stderr.Bytes())
	}
	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			return exports, targets, nil
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: parse go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
}
