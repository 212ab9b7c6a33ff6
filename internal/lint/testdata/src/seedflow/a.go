// The seedflow fixture: RNG constructors seeded from a parameter, a
// struct field, or the SeedFor/CellSeed lineage stay silent;
// literal, constant, package-level, and clock-derived seeds — including
// a clock read laundered through helpers, which only the module
// engine's summaries can see — are flagged. The test registers this
// package path as a deterministic package.
package seedflow

import (
	"math/rand/v2"
	"time"

	"seedflow/runner"
	"seedflow/xrand"
)

const fixedSeed uint64 = 99

var ambient uint64 = 7

// Config carries a seed the way sweep cells do.
type Config struct{ Seed uint64 }

func fromParam(seed uint64) *xrand.RNG { return xrand.New(seed) }

func fromField(c Config) *xrand.RNG { return xrand.New(c.Seed) }

func fromLineage(master, cell uint64) *xrand.RNG {
	return xrand.New(xrand.SeedFor(master, cell))
}

func fromCell(master uint64) *xrand.RNG {
	return xrand.New(runner.CellSeed(master, 3, 0))
}

// Mixing a constant into a parameter-derived seed is fine: the caller
// still controls the stream.
func mixed(seed uint64) *xrand.RNG { return xrand.New(seed ^ 0x9e3779b9) }

func literalSeed() *xrand.RNG {
	return xrand.New(42) // want `xrand.New seeded from a literal`
}

func constSeed() *xrand.RNG {
	return xrand.New(fixedSeed) // want `xrand.New seeded from the constant fixedSeed`
}

func globalSeed() *xrand.RNG {
	return xrand.New(ambient) // want `xrand.New seeded from the package-level variable ambient`
}

func clockSeed() *xrand.RNG {
	return xrand.New(uint64(time.Now().UnixNano())) // want `xrand.New seeded from the wall clock \(time.Now\)`
}

func tick() int64 { return time.Now().UnixNano() }

func stamp() uint64 { return uint64(tick()) }

// The interprocedural case: the clock read is two frames down, behind
// stamp and tick; the summary facts carry it back to the seed site.
func launderedClock() *xrand.RNG {
	return xrand.New(stamp()) // want `xrand.New seeded from the wall clock via seedflow.stamp → seedflow.tick → time.Now`
}

// Local def-use: a variable whose every assignment is sanctioned is
// sanctioned; one fed from a literal is not.
func localParam(seed uint64) *xrand.RNG {
	s := seed + 1
	return xrand.New(s)
}

func localLiteral() *xrand.RNG {
	s := uint64(41)
	return xrand.New(s) // want `xrand.New seeded from a literal \(assigned to s\)`
}

// Reseed is a constructor for lineage purposes.
func reseedBad(seed uint64) *xrand.RNG {
	r := xrand.New(seed)
	r.Reseed(12345) // want `xrand.Reseed seeded from a literal`
	return r
}

func reseedGood(r *xrand.RNG, master uint64) {
	r.Reseed(xrand.SeedFor(master, 1))
}

// The stdlib constructors are held to the same lineage.
func pcgSeed(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 4)) // want `rand.NewPCG seeded from a literal`
}

// An opaque in-module value: the analyzer cannot classify it, so it
// stays silent rather than guessing.
func opaque() uint64 { return 0xfeed }

func fromOpaque() *xrand.RNG { return xrand.New(opaque()) }

func allowedLiteral() *xrand.RNG {
	//gossiplint:allow seedflow fixture proves the suppression directive works
	return xrand.New(7)
}
