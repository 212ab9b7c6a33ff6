package lint_test

import (
	"testing"

	"gossip/internal/lint"
)

func TestViewEnc(t *testing.T) {
	// viewenc matches view types by declaring-package name, so the
	// fixture's viewenc/corpus package stands in for the real
	// internal/corpus with no registration needed. The subdirectory is
	// analyzed as its own package, which is what proves the WriteJSON
	// exemption and the rogue-sibling-encoder finding.
	runFixture(t, "viewenc", lint.ViewEnc)
}
