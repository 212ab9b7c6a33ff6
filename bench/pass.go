package main

import (
	"runtime"
	"time"
)

// pass is one execution of a workload's fixed piece of work.
type pass struct {
	start time.Time
	wall  time.Duration
	alloc uint64    // TotalAlloc delta
	opMs  []float64 // wall per op, in the pass's fixed op order

	// memory marks a memory pass, which is not timed: at every op
	// boundary it reads the heap in use and then collects it, so each
	// reading is what that op built and left, and peak is the largest.
	// Without the collection the reading also held the previous op's
	// garbage or not, which the seed decided: on gossip_exact
	// peak_heap_mb read 89 MB on four seeds in ten and 144 MB on six.
	memory bool
	peak   uint64
}

// opDone records one finished op.
func (p *pass) opDone(ms float64) {
	p.opMs = append(p.opMs, ms)
	if p.memory {
		p.peak = max(p.peak, heapInUse())
		runtime.GC()
	}
}

// begin collects garbage and starts the pass's clock and allocation
// count. Starting every pass from a collected heap keeps a pass's peak
// memory from depending on where the previous pass left the collector.
func (p *pass) begin() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.alloc = m.TotalAlloc
	p.start = time.Now()
}

func (p *pass) end() {
	p.wall = time.Since(p.start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.alloc = m.TotalAlloc - p.alloc
}

// setupRounds is how many times set-up is repeated for its median: n,
// but once where setup_s is not reported.
func setupRounds(cfg config, n int) int {
	if cfg.quick || cfg.trace {
		return 1
	}
	return n
}

// keepGoing bounds the timed region: passes repeat until cfg.seconds
// have elapsed (at least two; quick mode runs exactly one).
func keepGoing(cfg config, passes int, start time.Time) bool {
	if cfg.quick {
		return passes < 1
	}
	// A further pass starts only if at least half of it fits.
	elapsed := time.Since(start).Seconds()
	return passes < 2 || elapsed+elapsed/float64(passes)/2 < cfg.seconds
}

// reportPasses fills the end-to-end metrics of a workload made of passes
// of ops ops each: timed are the passes of the timed region, warm the
// set-ups' warm-up passes, which are memory passes.
func reportPasses(res *result, ops float64, timed, warm []pass, setups []float64) {
	var walls, allocs, peaks []float64
	for _, p := range warm {
		peaks = append(peaks, float64(p.peak)/(1<<20))
	}
	perOp := make([][]float64, len(timed[0].opMs))
	for _, p := range timed {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/(1<<20)/ops)
		for i, ms := range p.opMs {
			perOp[i] = append(perOp[i], ms)
		}
	}
	res.set("ops_per_s", ops/median(walls))
	m := res.Metrics["ops_per_s"]
	q1, q3 := quartiles(walls)
	m.Q1, m.Q3, m.N = ops/q3, ops/q1, len(walls)
	res.Metrics["ops_per_s"] = m
	// Each op's latency is first its own median over the passes, so that
	// the median over ops is taken over steady numbers and cannot sit on
	// the edge between two kinds of op.
	opMs := make([]float64, len(perOp))
	for i, ms := range perOp {
		opMs[i] = median(ms)
	}
	res.setMedian("op_p50_ms", opMs)
	res.setMedian("alloc_mb_per_op", allocs)
	res.setMedian("peak_heap_mb", peaks)
	res.setMedian("setup_s", setups)
}
