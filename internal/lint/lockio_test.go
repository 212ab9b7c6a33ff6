package lint_test

import (
	"testing"

	"gossip/internal/lint"
)

func TestLockIO(t *testing.T) {
	runFixture(t, "lockio", lint.LockIO)
}
