package lint_test

import (
	"testing"

	"gossip/internal/lint"
)

func TestDetLint(t *testing.T) {
	// The fixture's import path is "detlint"; enroll it in the
	// deterministic set for the duration so the scheduler-order and
	// map-iteration checks apply to it like they do to internal/core.
	saved := lint.DetPackagePaths
	lint.DetPackagePaths = append(append([]string{}, saved...), "detlint")
	defer func() { lint.DetPackagePaths = saved }()

	runFixture(t, "detlint", lint.DetLint)
}
