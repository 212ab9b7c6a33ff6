package main

import "runtime/metrics"

// heapInUse is the memory the Go runtime has in use right now: heap
// objects (live, or dead and not yet swept) plus goroutine stacks. The
// workloads read it at op boundaries — the end of a cell or run, where
// what the op built is still on the heap — and keep the peak per pass,
// for peak_heap_mb.
//
// VmHWM of the process is what a user sees, but it keeps only the worst
// moment of the whole run: on gossip_exact it read 127 MB or 181 MB from
// run to run, depending on whether one pass in a dozen allocated its next
// tracker before the collector had freed the previous one. A background
// sampler (1 kHz) was steady too but cost gossip_exact a tenth of its
// throughput: every tick takes a P from par.For's two workers.
func heapInUse() uint64 {
	sample := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/stacks:bytes"},
	}
	metrics.Read(sample)
	return sample[0].Value.Uint64() + sample[1].Value.Uint64()
}
