package lint_test

import (
	"testing"

	"gossip/internal/lint"
)

func TestDetLint(t *testing.T) {
	// The fixture's packages "detlint", "detlint/mix" and "detlint/pure"
	// join the deterministic set for the duration, so the import rule
	// and the scheduler-order and map-iteration checks apply to them
	// like they do to internal/core; "detlint/clockutil" stays outside.
	saved := lint.DetPackagePaths
	lint.DetPackagePaths = append(append([]string{}, saved...), "detlint", "detlint/mix", "detlint/pure")
	defer func() { lint.DetPackagePaths = saved }()

	runFixture(t, "detlint")
}
