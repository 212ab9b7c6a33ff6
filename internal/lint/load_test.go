package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossip/internal/lint"
)

// writeModule lays out a throwaway single-package module for loader
// error-path tests.
func writeModule(t *testing.T, source string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module broken\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(source), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLoadTypeError: a package that fails type checking must surface a
// positioned error — file:line in the message — not a panic and not a
// silently skipped package.
func TestLoadTypeError(t *testing.T) {
	dir := writeModule(t, "package broken\n\nfunc f() int { return \"not an int\" }\n")
	pkgs, err := lint.Load(dir, "./...")
	if err == nil {
		t.Fatalf("Load succeeded on a type-broken package: %v", pkgs)
	}
	if !strings.Contains(err.Error(), "a.go:3") {
		t.Errorf("error does not point at the broken line: %v", err)
	}
}

// TestLoadSyntaxError: same contract for parse failures.
func TestLoadSyntaxError(t *testing.T) {
	dir := writeModule(t, "package broken\n\nfunc f( {\n")
	pkgs, err := lint.Load(dir, "./...")
	if err == nil {
		t.Fatalf("Load succeeded on a syntax-broken package: %v", pkgs)
	}
	if !strings.Contains(err.Error(), "a.go:3") {
		t.Errorf("error does not point at the broken line: %v", err)
	}
}

// TestLoadSubsetSharesTypes: with targets a and c, a reaches c's type
// both directly and through the unmatched b. One export-data importer
// serves every import, so both paths name one c.T; if they named two, a
// would fail to type-check with "cannot use *c.T as *c.T". b is not
// returned. c imports "unsafe", which the gc importer maps to
// types.Unsafe.
func TestLoadSubsetSharesTypes(t *testing.T) {
	dir := writeModule(t, "package broken\n")
	for name, src := range map[string]string{
		"c/c.go": "package c\n\nimport \"unsafe\"\n\ntype T struct{}\n\nconst Size = unsafe.Sizeof(T{})\n",
		"b/b.go": "package b\n\nimport \"broken/c\"\n\nfunc Use(*c.T) {}\n",
		"a/a.go": "package a\n\nimport (\n\t\"broken/b\"\n\t\"broken/c\"\n)\n\nfunc f() { b.Use(&c.T{}) }\n",
	} {
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := lint.Load(dir, "./a", "./c")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if strings.Join(got, " ") != "broken/c broken/a" {
		t.Errorf("Load returned %v, want [broken/c broken/a]", got)
	}
}

// TestLoadBadPattern: an unresolvable pattern is an error, not an
// empty result.
func TestLoadBadPattern(t *testing.T) {
	dir := writeModule(t, "package broken\n")
	if _, err := lint.Load(dir, "./nosuchdir"); err == nil {
		t.Fatal("Load succeeded on a nonexistent pattern")
	}
}
