package main

import (
	"runtime"
	"time"

	"gossip/internal/graph"
	"gossip/internal/msg"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

// Fixed-size kernels run once per traced run, whatever the workload: they
// are the only outside view of the msg layer (its transfers happen inside
// Sync.Step), and dial+invert doubles as the machine calibration value.

// bestOf times fn several times and returns the fastest, the usual
// estimator for a fixed piece of CPU work on a noisy host.
func bestOf(times int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < times; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// calibrate is phone.dial_invert_ns_per_node: every node of an ER graph
// (n = 8192) dials a random neighbour and the round is inverted into
// incoming-caller lists — the substrate step under every transport.
func calibrate() float64 {
	const n, rounds = 8192, 50
	g := graph.ErdosRenyi(n, graph.PLogSquared(n), xrand.New(1))
	nt := phone.NewNet(g, 1)
	r := phone.NewRound(n)
	d := bestOf(5, func() {
		for i := 0; i < rounds; i++ {
			r.Reset()
			for v := int32(0); v < n; v++ {
				r.Out[v] = g.RandomNeighbor(v, nt.RNG(v))
			}
			r.BuildIncoming()
		}
	})
	return float64(d.Nanoseconds()) / (n * rounds)
}

// roundTracker is what the transfer kernel needs of msg.Full and
// msg.Sampled.
type roundTracker interface {
	BeginRound()
	EndRound()
	Transfer(src, dst int32) int
}

// transferNs runs a fixed doubling schedule (in round r node v receives
// from v+2^r, so rows fill the way a spreading rumor set does) and
// returns ns per Transfer, BeginRound/EndRound included.
func transferNs(n int, fresh func() roundTracker) float64 {
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	trackers := []roundTracker{fresh(), fresh(), fresh()}
	d := bestOf(len(trackers), func() {
		tr := trackers[0]
		trackers = trackers[1:]
		for r := 0; r < rounds; r++ {
			tr.BeginRound()
			for v := 0; v < n; v++ {
				tr.Transfer(int32((v+1<<r)%n), int32(v))
			}
			tr.EndRound()
		}
	})
	return float64(d.Nanoseconds()) / float64(n*rounds)
}

// runKernels fills the kernel-backed per-layer metrics.
func runKernels(res *result, quick bool) {
	nFull, nSampled := 8192, 65536
	if quick {
		nFull, nSampled = nFull/8, nSampled/8
	}
	res.set("phone.dial_invert_ns_per_node", calibrate())
	res.set("msg.full_transfer_ns", transferNs(nFull, func() roundTracker { return msg.NewFull(nFull) }))
	res.set("msg.sampled_transfer_ns", transferNs(nSampled, func() roundTracker { return msg.NewSampled(nSampled, 64, 1) }))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := msg.NewFull(nFull)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	res.set("msg.full_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
}
