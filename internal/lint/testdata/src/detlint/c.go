// An allowed import: the directive on the import line names the
// analyzer and a reason, so the import rule's finding is suppressed —
// visibly. The deterministic fixture packages import silently.
package detlint

import (
	"detlint/clockutil" //gossiplint:allow detlint fixture: provenance stamp, excluded from result bytes
	"detlint/pure"
)

func allowedStamp() uint64 {
	return pure.Mix(clockutil.Stamp(), 1)
}
