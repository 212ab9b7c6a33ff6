// Package demo is the CLI test fixture: one module with exactly one
// unsuppressed finding (the Stamp wall-clock read) and one suppressed
// one, so the gossiplint command's exit code and its text output are
// pinned by the golden file testdata/demo.txt.
package demo

import "time"

// Stamp reads the wall clock: the demo finding.
func Stamp() int64 { return time.Now().UnixNano() }

//gossiplint:allow detlint demo inventory entry
func Allowed() time.Time { return time.Now() }
