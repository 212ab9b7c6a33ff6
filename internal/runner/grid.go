package runner

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Scenario names one cell of an evaluation grid.
type Scenario struct {
	// Index is the cell's position in its grid; per-rep seeds derive from
	// the master seed and this index.
	Index int `json:"index"`
	// Algo selects the protocol, by one of the names Algos lists.
	Algo string `json:"algo"`
	// Model selects the topology: er | regular | powerlaw | complete.
	Model string `json:"model"`
	// N is the number of nodes (= number of messages for gossiping).
	N int `json:"n"`
	// Density scales the expected degree relative to the paper's log²n
	// operating point: er uses p = Density·log²n/n, regular uses
	// d = Density·log²n, powerlaw scales the minimum expected degree.
	// complete ignores it. 0 means 1 (the paper's density).
	Density float64 `json:"density"`
	// Failures crashes that many random non-leader nodes before Phase II
	// of the memory model (0 elsewhere).
	Failures int `json:"failures"`
	// Trees overrides the memory model's gather-tree count (0 = schedule
	// default: 1, or 3 in the §5 failure setting). Other algorithms
	// ignore it.
	Trees int `json:"trees,omitempty"`
	// MemSlots overrides the memory model's per-node link memory
	// capacity (0 = the paper's 4). Other algorithms ignore it.
	MemSlots int `json:"memslots,omitempty"`
	// WalkProb overrides fast-gossip's per-round walk start probability
	// (0 = the schedule's 1/log n). Other algorithms ignore it.
	WalkProb float64 `json:"walkprob,omitempty"`
	// SampleK is the tracked-message count of the "sampled" estimator
	// (0 = DefaultSampleK, clamped to n at run time). Other algorithms
	// ignore it.
	SampleK int `json:"k,omitempty"`
	// Reps is the number of independent repetitions (seed-indexed).
	Reps int `json:"reps"`
}

// String renders the cell compactly, e.g. "pushpull/er n=1024 d=1 f=0",
// with the optional knobs appended only when set.
func (s Scenario) String() string {
	str := fmt.Sprintf("%s/%s n=%d d=%g f=%d", s.Algo, s.Model, s.N, s.density(), s.Failures)
	if s.Trees > 0 {
		str += fmt.Sprintf(" trees=%d", s.Trees)
	}
	if s.MemSlots > 0 {
		str += fmt.Sprintf(" mem=%d", s.MemSlots)
	}
	if s.WalkProb > 0 {
		str += fmt.Sprintf(" wp=%g", s.WalkProb)
	}
	if s.SampleK > 0 {
		str += fmt.Sprintf(" k=%d", s.SampleK)
	}
	return str
}

func (s Scenario) density() float64 {
	if s.Density <= 0 {
		return 1
	}
	return s.Density
}

// Canonical returns s with its defaulted values made explicit, like
// Grid.Canonical: density 0 becomes 1, and SampleK 0 becomes
// DefaultSampleK for an algorithm that reads it. Scenarios naming the
// same computation have equal canonical forms.
func (s Scenario) Canonical() Scenario {
	s.Density = s.density()
	if a, _ := lookupAlgo(s.Algo); a.knobs&knobSampleK != 0 {
		s.SampleK = sampleK(s.SampleK)
	}
	return s
}

// FailureSpec is a failure count, absolute or relative to the graph size.
type FailureSpec struct {
	Count int     `json:"count,omitempty"` // absolute count, used when Frac == 0
	Frac  float64 `json:"frac,omitempty"`  // fraction of n in (0, 1]
}

// Resolve returns the concrete failure count for an n-node graph,
// rounding Frac·n to the nearest integer — truncation would lose a
// node whenever the product lands a float ulp below it (0.07·300 is
// 20.999…, not 21).
func (f FailureSpec) Resolve(n int) int {
	if f.Frac > 0 {
		return int(math.Round(f.Frac * float64(n)))
	}
	return f.Count
}

// String prints a percentage with 15 significant digits, which drops the
// float noise of Frac·100 (0.23% is not 0.22999999999999998%).
func (f FailureSpec) String() string {
	if f.Frac > 0 {
		return strconv.FormatFloat(f.Frac*100, 'g', 15, 64) + "%"
	}
	return strconv.Itoa(f.Count)
}

// ParseFailureSpec parses "5000" (absolute) or "2.5%" (fraction of n). A
// percentage is rounded to the 15 significant digits String prints, so a
// spec and its String's parse resolve alike at every n.
func ParseFailureSpec(s string) (FailureSpec, error) {
	s = strings.TrimSpace(s)
	if frac, ok := strings.CutSuffix(s, "%"); ok {
		v, err := strconv.ParseFloat(frac, 64)
		if err != nil || !(v >= 0 && v <= 100) { // negated: NaN fails it too
			return FailureSpec{}, fmt.Errorf("runner: bad failure percentage %q", s)
		}
		v, _ = strconv.ParseFloat(strconv.FormatFloat(v, 'g', 15, 64), 64)
		return FailureSpec{Frac: v / 100}, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return FailureSpec{}, fmt.Errorf("runner: bad failure count %q", s)
	}
	return FailureSpec{Count: v}, nil
}

// Grid declares a cross-product of scenario dimensions. Empty dimensions
// default to a single neutral value (model "er", density 1, zero
// failures), so only the axes under study need declaring.
//
// Canonical applies those defaults; Scenarios and Validate both start
// from it, so what is validated is what runs.
type Grid struct {
	Algos     []string      `json:"algos,omitempty"`
	Models    []string      `json:"models,omitempty"`
	Sizes     []int         `json:"sizes,omitempty"`
	Densities []float64     `json:"densities,omitempty"`
	Failures  []FailureSpec `json:"failures,omitempty"`
	// Trees and MemSlots vary the memory model's gather-tree count and
	// per-node link memory; WalkProbs varies fast-gossip's walk start
	// probability. Each axis collapses to a single schedule-default cell
	// for algorithms that ignore the knob, exactly like Failures.
	Trees     []int     `json:"trees,omitempty"`
	MemSlots  []int     `json:"memslots,omitempty"`
	WalkProbs []float64 `json:"walkprobs,omitempty"`
	// SampleK is the tracked-message count for "sampled" estimator cells
	// (0 = DefaultSampleK). A knob, not an axis: it does not multiply
	// the grid.
	SampleK int `json:"k,omitempty"`
	// Reps is the per-cell repetition count (<= 0 means 1).
	Reps int `json:"reps,omitempty"`
	// Seed is the master seed the Runner derives per-cell seeds from.
	Seed uint64 `json:"seed,omitempty"`
}

// orNeutral returns a declared axis as is, an undeclared one as its
// single neutral value.
func orNeutral[T any](axis []T, neutral T) []T {
	if len(axis) == 0 {
		return []T{neutral}
	}
	return axis
}

// Canonical returns g with every defaulted dimension made explicit
// (SampleK included: 0 and DefaultSampleK run the same computation). Two
// grids that expand to the same scenario list under the same seed have
// the same canonical form — the property the corpus relies on to
// content-address run IDs.
func (g Grid) Canonical() Grid {
	g.Algos = orNeutral(g.Algos, algoTable[0].name)
	g.Models = orNeutral(g.Models, "er")
	g.Sizes = orNeutral(g.Sizes, 1024)
	g.Densities = orNeutral(g.Densities, 1)
	g.Failures = orNeutral(g.Failures, FailureSpec{})
	g.Trees = orNeutral(g.Trees, 0)
	g.MemSlots = orNeutral(g.MemSlots, 0)
	g.WalkProbs = orNeutral(g.WalkProbs, 0)
	g.SampleK = sampleK(g.SampleK)
	if g.Reps <= 0 {
		g.Reps = 1
	}
	return g
}

// collapseFor returns g's canonical form as the named algorithm sees
// it: every knob axis the algorithm does not read is its single
// schedule-default value. SampleK is stamped with its default where it
// is read, so a cell's scenario names the exact computation — grids
// declared with and without -k produce identical records and join
// across runs. Unknown names read no knob; Validate rejects them.
func (g Grid) collapseFor(name string) Grid {
	a, _ := lookupAlgo(name)
	if a.knobs&knobFailures == 0 {
		g.Failures = nil
	}
	if a.knobs&knobMemory == 0 {
		g.Trees, g.MemSlots = nil, nil
	}
	if a.knobs&knobWalkProb == 0 {
		g.WalkProbs = nil
	}
	g = g.Canonical()
	if a.knobs&knobSampleK == 0 {
		g.SampleK = 0
	}
	return g
}

// Scenarios expands the grid into its work list. The nesting order is
// algo > model > size > density > failures > trees > memslots >
// walkprob (walkprob innermost), and cell indices follow that order, so
// a grid's seed assignment is reproducible from its declaration alone.
// Each knob axis collapses to a single neutral cell for algorithms that
// do not read it (see collapseFor).
func (g Grid) Scenarios() []Scenario {
	g = g.Canonical()
	// The capacity accounts for every axis, including the per-algorithm
	// collapse of the knob axes, so the expansion never reallocates and
	// wastes nothing (len == cap on return).
	per := make([]Grid, len(g.Algos))
	perDim := 0
	for i, algo := range g.Algos {
		per[i] = g.collapseFor(algo)
		perDim += len(per[i].Failures) * len(per[i].Trees) * len(per[i].MemSlots) * len(per[i].WalkProbs)
	}
	out := make([]Scenario, 0, perDim*len(g.Models)*len(g.Sizes)*len(g.Densities))
	for i, algo := range g.Algos {
		ag := per[i]
		for _, model := range g.Models {
			for _, n := range g.Sizes {
				for _, d := range g.Densities {
					for _, f := range ag.Failures {
						for _, tr := range ag.Trees {
							for _, ms := range ag.MemSlots {
								for _, wp := range ag.WalkProbs {
									out = append(out, Scenario{
										Index:    len(out),
										Algo:     algo,
										Model:    model,
										N:        n,
										Density:  d,
										Failures: f.Resolve(n),
										Trees:    tr,
										MemSlots: ms,
										WalkProb: wp,
										SampleK:  ag.SampleK,
										Reps:     g.Reps,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}
