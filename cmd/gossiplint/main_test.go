package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDemoFindings pins the text output CI's problem matcher parses,
// byte for byte: the demo module has one unsuppressed finding, so the
// run exits 1.
func TestDemoFindings(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", "testdata/demo", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (one finding); stderr: %s", code, errb.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "demo.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("stdout differs from testdata/demo.txt:\ngot:  %s\nwant: %s", out.Bytes(), want)
	}
}

// TestRetiredFlags: the report-mode and selector flags are gone, and an
// old invocation is a usage error rather than a plain run that ignores
// what it was asked for.
func TestRetiredFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-sarif", "x", "./..."},
		{"-json", "./..."},
		{"-only", "detlint", "./..."},
	} {
		var out, errb bytes.Buffer
		if code := run(append([]string{"-C", "testdata/demo"}, args...), &out, &errb); code != 2 {
			t.Errorf("gossiplint %v: exit = %d, want 2; stdout: %s", args, code, out.String())
		}
	}
}
