package core

import (
	"gossip/internal/graph"
	"gossip/internal/phone"
)

// MemoryBroadcastMode labels BroadcastResults produced by MemoryBroadcast.
const MemoryBroadcastMode BroadcastMode = 3

// MemoryBroadcast runs the Phase I infrastructure procedure of Algorithm 2
// as a standalone single-message broadcast — this is the memory-model
// broadcasting of Elsässer–Sauerwald [20] that the paper's §4 builds on:
// informed nodes contact 4 distinct (open-avoid) neighbors during one
// long-step and stop; uninformed nodes then pull with open-avoid until
// everyone is informed. O(log n) rounds and O(n) transmissions.
func MemoryBroadcast(g *graph.Graph, p MemoryParams, root int32, seed uint64) *BroadcastResult {
	return MemoryBroadcastOver(g, p, root, seed, SyncTransport)
}

// MemoryBroadcastOver is MemoryBroadcast with the broadcast machines run
// over the given transport.
func MemoryBroadcastOver(g *graph.Graph, p MemoryParams, root int32, seed uint64, tf TransportFactory) *BroadcastResult {
	nt := phone.NewNet(g, seed)
	tree := buildTree(nt, root, p, true, tf)
	res := &BroadcastResult{
		Mode:          MemoryBroadcastMode,
		N:             g.N(),
		Steps:         int(tree.Steps),
		Completed:     tree.Completed,
		Transmissions: tree.Meter.Transmissions,
		Opened:        tree.Meter.Opened,
		InformedAt:    tree.InformedAt,
	}
	return res
}
