package core

import (
	"gossip/internal/graph"
	"gossip/internal/msg"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

// PushPullSampledOver runs the push–pull baseline dynamics on the given
// transport while tracking only k sampled messages exactly, lifting the n²
// memory wall of the exact tracker (Θ(n·k) bits instead): PushPullOver's
// loop observed through a msg.Sampled tracker. The channel dynamics and
// the per-step meter are identical to PushPull under the same seed; only
// the completion observation is sampled, so Steps is the number of rounds
// until every node knew every SAMPLED message (a lower bound on full
// completion; the gap is additive O(1) on the graphs of the study — see
// msg.Sampled).
func PushPullSampledOver(g *graph.Graph, seed uint64, k, maxSteps int, tf TransportFactory) *Result {
	tr := msg.NewSampled(g.N(), k, xrand.SeedFor(seed, 0x5a3b1e))
	return pushPull(phone.NewNet(g, seed), maxSteps, tf, tr)
}
