// Package core implements the gossiping algorithms of the reproduced paper:
//
//   - PushPull: the simple push–pull baseline (Algorithm 4, Appendix C.1),
//   - FastGossip: the three-phase fast-gossiping algorithm for random
//     graphs (Algorithm 1, §3),
//   - MemoryGossip: the leader-based memory-model algorithm that remembers
//     up to four links per node (Algorithm 2, §4),
//   - ElectLeaderOver: the leader-election protocol (Algorithm 3, §4.1),
//
// plus the single-message broadcast baselines (push / pull / push–pull)
// that form the paper's context ([34], [19]), and the crash-failure model
// of the robustness study (§5, Figures 2/3/5).
//
// All algorithms run on the random phone call substrate of internal/phone
// and are parameterized both by the theory constants of the pseudocode and
// by the tuned constants the authors used in their simulations (Table 1).
package core

import "math"

// Logn returns the paper's log n: the base-2 logarithm (§1 footnote 1),
// clamped below at 1 so schedules stay positive on degenerate tiny inputs.
func Logn(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

// LogLogn returns log2(log2 n), clamped below at 1.
func LogLogn(n int) float64 {
	ll := math.Log2(Logn(n))
	if ll < 1 {
		return 1
	}
	return ll
}

func ceil(x float64) int  { return int(math.Ceil(x)) }
func floor(x float64) int { return int(math.Floor(x)) }

// roundUp4 rounds up to a multiple of 4 (Algorithm 2 groups four steps
// into one "long-step"; Table 1 rounds the push phase length to a multiple
// of 4).
func roundUp4(x int) int { return (x + 3) / 4 * 4 }

// FastGossipParams is the schedule of Algorithm 1. Zero values are invalid;
// construct with TunedFastGossipParams (Table 1) or TheoryFastGossipParams
// (the pseudocode constants).
type FastGossipParams struct {
	// DistributionSteps is the length of Phase I, in which every node
	// pushes its combined message each step.
	DistributionSteps int
	// Rounds is the number of Phase II rounds (outer loop).
	Rounds int
	// WalkProb is the per-round probability that a node starts a random
	// walk (ℓ/log n in the pseudocode).
	WalkProb float64
	// WalkSteps is the number of forwarding steps per round (6ℓ·log n in
	// the pseudocode, ⌈log n/loglog n⌉+2 in Table 1).
	WalkSteps int
	// MaxMoves stops a walk after this many real moves (c_moves·log n),
	// keeping walks near-uniformly distributed.
	MaxMoves int32
	// BroadcastSteps is the length of the per-round activation broadcast
	// (1/2·loglog n in the pseudocode).
	BroadcastSteps int
	// Phase3MaxSteps caps the final push–pull phase. The empirical section
	// runs the last phase to completion; the cap only guards against a
	// disconnected input.
	Phase3MaxSteps int
}

// TunedFastGossipParams returns the constants of Table 1, the values the
// paper's own simulations used:
//
//	Phase I steps:          ⌈1.2·loglog n⌉
//	Phase II rounds:        ⌈log n / loglog n⌉
//	walk probability:       1 / log n
//	walk steps per round:   ⌈log n / loglog n + 2⌉
//	broadcast steps:        ⌈0.5·loglog n⌉
func TunedFastGossipParams(n int) FastGossipParams {
	l, ll := Logn(n), LogLogn(n)
	return FastGossipParams{
		DistributionSteps: ceil(1.2 * ll),
		Rounds:            ceil(l / ll),
		WalkProb:          1 / l,
		WalkSteps:         ceil(l/ll + 2),
		MaxMoves:          int32(ceil(l)),
		BroadcastSteps:    ceil(0.5 * ll),
		Phase3MaxSteps:    8 * ceil(l),
	}
}

// TheoryFastGossipParams returns the pseudocode constants of Algorithm 1
// with the multiplicative constants set to their smallest admissible
// values (ℓ = 1, c_moves = 1); the asymptotic schedule shapes are the ones
// proven in §3.
func TheoryFastGossipParams(n int) FastGossipParams {
	l, ll := Logn(n), LogLogn(n)
	p := 1 / l
	if p > 1 {
		p = 1
	}
	return FastGossipParams{
		DistributionSteps: ceil(12 * l / ll),
		Rounds:            ceil(4 * l / ll),
		WalkProb:          p,
		WalkSteps:         ceil(6 * l),
		MaxMoves:          int32(ceil(l)),
		BroadcastSteps:    ceil(0.5 * ll),
		Phase3MaxSteps:    8 * ceil(l),
	}
}

// MemoryParams is the schedule of Algorithm 2 (and of the broadcast it
// reuses in Phase III).
type MemoryParams struct {
	// PushSteps is the length of the Phase I push stage in steps (a
	// multiple of 4: four steps form one long-step; a node informed in
	// long-step j contacts 4 distinct neighbors during long-step j+1).
	PushSteps int
	// PullSteps is the length of the Phase I pull stage: uninformed nodes
	// open-avoid once per step and are informed by any informed callee.
	PullSteps int
	// Phase3PushSteps is the push-stage length of the Phase III broadcast
	// (Table 1: ⌊log n⌋, rounded up to a long-step boundary).
	Phase3PushSteps int
	// Phase3MaxPullSteps caps the Phase III pull stage, which otherwise
	// runs until the broadcast completes (§5: "the last phase … was run
	// until the entire graph was informed").
	Phase3MaxPullSteps int
	// MemSlots is the per-node link memory capacity (4 in the paper; the
	// ablation study varies it in 1..4).
	MemSlots int
	// Trees is the number of independent gather trees built in Phase I.
	// The robustness simulation of §5 uses 3; a single tree suffices
	// without failures.
	Trees int
}

// TunedMemoryParams returns the Table 1 constants:
//
//	Phase I push steps:  2.0·log n, rounded to a multiple of 4
//	Phase I pull steps:  ⌊2.0·loglog n⌋
//	Phase II:            mirrors Phase I (implied by the algorithm)
//	Phase III:           ⌊log n⌋ push steps, pull until complete
func TunedMemoryParams(n int) MemoryParams {
	l, ll := Logn(n), LogLogn(n)
	return MemoryParams{
		PushSteps:          roundUp4(ceil(2 * l)),
		PullSteps:          floor(2 * ll),
		Phase3PushSteps:    roundUp4(floor(l)),
		Phase3MaxPullSteps: 4 * ceil(l),
		MemSlots:           4,
		Trees:              1,
	}
}

// LeaderParams is the schedule of Algorithm 3.
type LeaderParams struct {
	// CandidateProb is the probability that a node declares itself a
	// possible leader (log²n/n in the paper).
	CandidateProb float64
	// PushSteps is the length of the ID push stage (log n + ρ·loglog n).
	PushSteps int
	// PullSteps is the length of the final pull stage (ρ·loglog n).
	PullSteps int
	// AvoidLast is how many recently called neighbors a node avoids
	// ("except the ones called in the previous three steps").
	AvoidLast int
}

// DefaultLeaderParams returns the Algorithm 3 schedule with rho = 4, which
// completes with high probability on every size the simulator reaches (the
// proof's rho > 64 is a union-bound convenience, not a practical need).
func DefaultLeaderParams(n int) LeaderParams {
	l, ll := Logn(n), LogLogn(n)
	const rho = 4
	p := l * l / float64(n)
	if p > 1 {
		p = 1
	}
	return LeaderParams{
		CandidateProb: p,
		PushSteps:     ceil(l + rho*ll),
		PullSteps:     ceil(rho * ll),
		AvoidLast:     3,
	}
}
