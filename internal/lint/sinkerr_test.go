package lint_test

import (
	"testing"

	"gossip/internal/lint"
)

func TestSinkErr(t *testing.T) {
	// RecWriter has no Write method, so only the SinkTypes list makes
	// sinkerr treat it as a corpus-feeding writer — exactly how the real
	// list enrolls runner.OrderedJSONL.
	lint.SinkTypes["sinkerr.RecWriter"] = true
	defer delete(lint.SinkTypes, "sinkerr.RecWriter")

	runFixture(t, "sinkerr", lint.SinkErr)
}
