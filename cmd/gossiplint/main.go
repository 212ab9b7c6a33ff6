// Command gossiplint runs the repo's determinism analyzer, detlint (see
// internal/lint), over Go packages and exits nonzero on any finding —
// the static half of the determinism story whose dynamic half is the
// zero-tolerance regression gates. Module-wide it flags wall-clock
// reads and global math/rand draws; a deterministic package
// (lint.DetPackagePaths) may also import neither the clock nor
// math/rand, nor any non-standard package outside that list, and its
// multi-case selects and order-sensitive map ranges are flagged.
//
// Usage:
//
//	gossiplint [-C dir] [patterns]
//
//	go run ./cmd/gossiplint ./...                  # the whole module
//	go run ./cmd/gossiplint ./internal/...         # a subtree
//
// Each finding is one line, file:line:col: analyzer: message, with the
// path relative to -C (default "."); CI's problem matcher parses it.
//
// Intentional violations are annotated in the source, not silenced in
// config:
//
//	conn.SetDeadline(time.Now().Add(2 * time.Second)) //gossiplint:allow detlint wire deadline, not simulation state
//
// A directive without a reason (or naming an unknown analyzer) is
// itself an error, so every exception in the tree stays auditable.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gossip/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gossiplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chdir := fs.String("C", ".", "load packages relative to this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pkgs, err := lint.Load(*chdir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "gossiplint:", err)
		return 2
	}
	diags := lint.Check(pkgs)
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relPath(*chdir, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relPath relativizes path against base when possible, always
// slash-separated.
func relPath(base, path string) string {
	if base != "" {
		if abs, err := filepath.Abs(base); err == nil {
			if absPath, err := filepath.Abs(path); err == nil {
				if rel, err := filepath.Rel(abs, absPath); err == nil && !strings.HasPrefix(rel, "..") {
					return filepath.ToSlash(rel)
				}
			}
		}
	}
	return filepath.ToSlash(path)
}
