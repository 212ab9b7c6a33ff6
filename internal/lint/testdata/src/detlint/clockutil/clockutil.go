// Package clockutil is the cross-package half of the detlint fixture:
// a helper package whose exported API launders a wall-clock read
// through two call frames. Its own time.Now site is flagged by the
// module-wide clock check; the import rule flags the deterministic
// fixture package's import of it.
package clockutil

import "time"

// Stamp is what a deterministic package must not reach: it reads the
// clock two frames down.
func Stamp() uint64 {
	return uint64(now())
}

func now() int64 {
	return time.Now().UnixNano() // want `time.Now reads the wall clock`
}
