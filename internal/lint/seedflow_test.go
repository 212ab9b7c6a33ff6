package lint_test

import (
	"testing"

	"gossip/internal/lint"
)

func TestSeedFlow(t *testing.T) {
	// Enroll the fixture's import path in the deterministic set so the
	// seed-lineage rules apply to it like they do to internal/walk.
	saved := lint.DetPackagePaths
	lint.DetPackagePaths = append(append([]string{}, saved...), "seedflow")
	defer func() { lint.DetPackagePaths = saved }()

	runFixture(t, "seedflow", lint.SeedFlow)
}
