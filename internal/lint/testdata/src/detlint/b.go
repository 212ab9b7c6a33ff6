// The function-value and import halves of the detlint fixture: aliased
// imports and method values are flagged at the call, and an import of
// the clock, of math/rand or of a package outside DetPackagePaths is
// flagged on its own line. clockutil reads the clock two frames down,
// so importing it is the finding; the calls through it are not.
package detlint

import (
	"math/rand"   // want `deterministic package imports "math/rand", the global random stream`
	chrono "time" // want `deterministic package imports "time", the wall clock`

	"detlint/clockutil" // want `deterministic package imports "detlint/clockutil", which is not in DetPackagePaths`
)

// Aliasing the import does not hide the clock: resolution is by type
// identity, not by the written name.
func aliasedClock() int64 {
	return chrono.Now().UnixNano() // want `time.Now reads the wall clock`
}

// A method value launders the clock through a local binding.
func boundClock() chrono.Time {
	now := chrono.Now
	return now() // want `call through now reaches time.Now, which reads the wall clock`
}

func roll() int {
	return rand.Intn(6) // want `draws from the global math/rand stream`
}

// The clock read behind Stamp is caught at the import above, however
// many frames down it sits.
func launderedStamp() uint64 {
	return clockutil.Stamp()
}
