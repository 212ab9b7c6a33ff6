package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gossip/internal/core"
	"gossip/internal/phone"
	"gossip/internal/runner"
	"gossip/internal/xrand"
)

// The three sweep workloads run one grid through runner.RunGrid, pass
// after pass of the same cells, until the timed region is over. An op is
// one cell repetition: graph build plus algorithm run.

// sweep declares a sweep workload: the cells of its grids, in order, are
// one pass. minBuild and maxBuild bound the traced pass's
// graph.build_share: outside them the workload has stopped stressing the
// layer it exists for, and the run fails.
type sweep struct {
	grids              []runner.Grid
	minBuild, maxBuild float64
}

var gossipExact = sweep{grids: []runner.Grid{{
	Algos: []string{"pushpull", "fast", "memory"}, Models: []string{"er"},
	Sizes: []int{8192, 16384}, Densities: []float64{1}, Reps: 1,
}}, maxBuild: 0.45}

var broadcastLarge = sweep{grids: []runner.Grid{{
	Algos:  []string{"sampled", "broadcast-push", "broadcast-pull", "broadcast-pushpull"},
	Models: []string{"er"}, Sizes: []int{65536}, Densities: []float64{1}, Reps: 1,
}}, minBuild: 0.6, maxBuild: 1}

// densityModels keeps powerlaw and complete off the density axis:
// complete ignores it, and a Chung–Lu graph below density 2 (minimum
// expected degree 16) has isolated nodes often enough that cells would
// fail to complete by design.
var densityModels = sweep{grids: []runner.Grid{
	{Algos: []string{"sampled", "pushpull"}, Models: []string{"er", "regular"}, Sizes: []int{2048}, Densities: []float64{0.25, 1, 2}, Reps: 1},
	{Algos: []string{"sampled", "pushpull"}, Models: []string{"powerlaw", "complete"}, Sizes: []int{2048}, Densities: []float64{2}, Reps: 1},
}, maxBuild: 1}

// scenarios expands the grids into one cell list (sizes / 8 in quick
// mode), which Runner.Run indexes and seeds by position.
func (w sweep) scenarios(quick bool) ([]runner.Scenario, error) {
	var out []runner.Scenario
	for _, g := range w.grids {
		if quick {
			g.Sizes = append([]int(nil), g.Sizes...)
			for i := range g.Sizes {
				g.Sizes[i] /= 8
			}
		}
		if err := g.Validate(); err != nil {
			return nil, err
		}
		out = append(out, g.Scenarios()...)
	}
	return out, nil
}

// sweepPass is one execution of the cells; its ops are the cells, each
// timed as wall per repetition.
type sweepPass struct {
	pass
	records []byte // the pass's cells as JSONL
	results []runner.CellResult
}

// sweepOnce runs the cells once: through the default Execute when tr is
// nil (the end-to-end path), through the traced exec otherwise.
func sweepOnce(cells []runner.Scenario, seed uint64, tr *tracer, pass int, memory bool) sweepPass {
	var p sweepPass
	p.memory = memory
	p.begin()
	root := tr.start(0, "runner.pass", "", pass)
	last := p.start
	r := runner.Runner{Workers: 1, Seed: seed, OnCell: func(c runner.CellResult) {
		now := time.Now()
		p.opDone(float64(now.Sub(last)) / 1e6 / float64(max(c.Scenario.Reps, 1)))
		last = time.Now()
	}}
	if tr != nil {
		r.Exec = tracedExec(tr, root, pass)
	}
	p.results = r.Run(cells)
	var buf bytes.Buffer
	enc := tr.start(root, "runner.record_encode", "", pass)
	err := runner.WriteJSONL(&buf, p.results)
	tr.end(enc)
	tr.end(root)
	p.end()
	if err != nil {
		panic(err) // a bytes.Buffer does not fail; a marshal error is a bug
	}
	p.records = buf.Bytes()
	return p
}

// Seed-stream tags of runner.Execute, which the traced exec must split
// the per-(cell, rep) seed with to simulate the same thing; the
// byte-identical record check fails if they drift.
const (
	tagGraph = 0x67726170
	tagRun   = 0x72756e21
)

// tracedExec is runner.Execute with a span around each call into a
// layer: the same BuildGraph and core.*Over calls, on a timing transport.
func tracedExec(tr *tracer, root, pass int) runner.ExecFunc {
	return func(s runner.Scenario, rep int, seed uint64) runner.Metrics {
		op := pass<<20 | s.Index<<4 | rep
		cell := tr.start(root, "runner.cell", s.Algo, op)
		defer tr.end(cell)

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := tr.start(cell, "graph.build", s.Model, op)
		g, err := runner.BuildGraph(s, xrand.SeedFor(seed, tagGraph))
		tr.end(sp)
		if err != nil {
			panic(err)
		}
		runtime.ReadMemStats(&m1)
		tr.count("graph.alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc))
		tr.count("graph.edges", float64(g.M()))

		run := xrand.SeedFor(seed, tagRun)
		// metrics is Execute's accounting, plus the node-steps count.
		metrics := func(n, steps int, msgsPerNode float64, completed bool) runner.Metrics {
			tr.count("core.node_steps", float64(n)*float64(steps))
			done := 0.0
			if completed {
				done = 1
			}
			return runner.Metrics{"msgs_per_node": msgsPerNode, "steps": float64(steps), "completed": done}
		}
		gossip := func(r *core.Result) runner.Metrics {
			return metrics(r.N, r.Steps, r.TransmissionsPerNode(), r.Completed)
		}

		algo := s.Algo
		if strings.HasPrefix(algo, "broadcast") {
			algo = "broadcast"
		}
		// Only these two entry points take a prepared net; the others
		// build theirs inside core.run.
		var nt *phone.Net
		if algo == "pushpull" || algo == "fast" {
			sp := tr.start(cell, "phone.newnet", "", op)
			nt = phone.NewNet(g, run)
			tr.end(sp)
		}
		sp = tr.start(cell, "core.run", algo, op)
		tf := func(ms []phone.Machine) phone.Transport {
			return &timedTransport{Transport: core.SyncTransport(ms), tr: tr, parent: sp, name: "phone.sync_step", op: op}
		}
		var out runner.Metrics
		switch algo {
		case "pushpull":
			r, _ := core.PushPullOver(nt, 0, tf)
			out = gossip(r)
		case "fast":
			r, _ := core.FastGossipOver(nt, core.TunedFastGossipParams(s.N), tf)
			out = gossip(r)
		case "memory":
			out = gossip(core.MemoryGossipOver(g, core.TunedMemoryParams(s.N), run, -1, tf))
		case "sampled":
			k := s.SampleK
			if k <= 0 {
				k = runner.DefaultSampleK
			}
			r := core.PushPullSampledOver(g, run, k, 0, tf)
			out = metrics(r.N, r.Steps, r.TransmissionsPerNode(), r.Completed)
		case "broadcast":
			mode := map[string]core.BroadcastMode{"broadcast-push": core.PushOnly, "broadcast-pull": core.PullOnly, "broadcast-pushpull": core.PushAndPull}[s.Algo]
			r := core.BroadcastOver(g, 0, mode, run, 0, tf)
			out = metrics(r.N, r.Steps, float64(r.Transmissions)/float64(r.N), r.Completed)
		default:
			panic("bench: the traced exec does not know algo " + s.Algo)
		}
		tr.end(sp)
		runtime.ReadMemStats(&m0)
		tr.count("core.mallocs", float64(m0.Mallocs-m1.Mallocs))
		return out
	}
}

// checkCells counts every cell repetition as an op: it must have
// completed, in a number of steps between log3 n (push-pull can at best
// triple the informed set in a step) and the 64·log2 n cap.
func checkCells(res *result, results []runner.CellResult) {
	for _, c := range results {
		n := float64(c.Scenario.N)
		lo, hi := math.Log(n)/math.Log(3), 64*math.Ceil(math.Log2(n))
		ok := c.Metrics["completed"] != nil && c.Metrics["completed"].Min() == 1 &&
			c.Metrics["steps"].Min() >= lo && c.Metrics["steps"].Max() <= hi
		if !ok {
			res.problem("cell %d (%s/%s n=%d density=%g) incomplete or steps outside [%.1f, %.0f]",
				c.Scenario.Index, c.Scenario.Algo, c.Scenario.Model, c.Scenario.N, c.Scenario.Density, lo, hi)
		}
		for i := 0; i < max(c.Scenario.Reps, 1); i++ {
			res.op(ok)
		}
	}
}

func hashOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func (w sweep) run(cfg config, res *result) error {
	cells, err := w.scenarios(cfg.quick)
	if err != nil {
		return err
	}
	ops := 0.0
	models := map[string]int{} // model → smallest size it is used at
	for _, c := range cells {
		ops += float64(max(c.Reps, 1))
		if n, ok := models[c.Model]; !ok || c.N < n {
			models[c.Model] = c.N
		}
	}

	// Set-up: one graph per model passes graph.Validate, then one untimed
	// warm-up pass (heap grown, pages faulted in). Done several times so
	// that setup_s is a median.
	var setups []float64
	var warm []pass
	for i := 0; i < setupRounds(cfg, 3); i++ {
		start := time.Now()
		for model, n := range models {
			gr, err := runner.BuildGraph(runner.Scenario{Model: model, N: min(n, 4096), Density: 2}, xrand.SeedFor(cfg.seed, uint64(i)))
			if err != nil {
				return err
			}
			if err := gr.Validate(); err != nil {
				res.problem("graph.Validate on %s: %v", model, err)
			}
		}
		p := sweepOnce(cells, cfg.seed, nil, 0, true)
		checkCells(res, p.results)
		warm = append(warm, p.pass)
		setups = append(setups, time.Since(start).Seconds())
	}

	var ref sweepPass
	timed := func(tr *tracer, pass int) sweepPass {
		p := sweepOnce(cells, cfg.seed, tr, pass, false)
		checkCells(res, p.results)
		if ref.records == nil {
			ref = p
			res.ResultHash = hashOf(p.records)
		} else if !bytes.Equal(p.records, ref.records) {
			res.problem("pass %d records differ from the first pass (traced=%v): %s vs %s", pass, tr != nil, hashOf(p.records), res.ResultHash)
		}
		return p
	}

	if !cfg.trace {
		var passes []pass
		for start := time.Now(); keepGoing(cfg, len(passes), start); {
			passes = append(passes, timed(nil, len(passes)).pass)
		}
		reportPasses(res, ops, passes, warm, setups)
		return nil
	}

	// Traced: untraced and traced passes alternate, so the overhead ratio
	// compares like with like and the records can be compared.
	tr := newTracer()
	var walls, traced []float64
	for pass, start := 0, time.Now(); keepGoing(cfg, pass, start); pass++ {
		walls = append(walls, timed(nil, 2*pass).wall.Seconds())
		traced = append(traced, timed(tr, 2*pass+1).wall.Seconds())
	}
	passes := float64(len(traced))
	perPass := func(name, tag string) float64 { s, _ := tr.total(name, tag); return s / passes }

	build, run, steps := perPass("graph.build", ""), perPass("core.run", ""), perPass("phone.sync_step", "")
	_, nSteps := tr.total("phone.sync_step", "")
	_, nRuns := tr.total("core.run", "")
	wall := perPass("runner.pass", "")
	res.LayerShare = tr.layerShares()
	res.set("graph.build_s", build)
	res.set("graph.build_share", res.LayerShare["graph"])
	res.set("graph.edges_per_s", tr.counts["graph.edges"]/passes/build)
	res.set("graph.alloc_mb", tr.counts["graph.alloc_bytes"]/passes/(1<<20))
	res.set("graph.er_build_s", perPass("graph.build", "er"))
	res.set("graph.regular_build_s", perPass("graph.build", "regular"))
	res.set("graph.chunglu_build_s", perPass("graph.build", "powerlaw"))
	res.set("graph.complete_build_s", perPass("graph.build", "complete"))
	res.set("phone.newnet_s", perPass("phone.newnet", ""))
	res.set("phone.sync_step_s", steps)
	res.set("phone.sync_steps", float64(nSteps)/passes)
	res.set("phone.opened", tr.counts["phone.opened"]/passes)
	res.set("phone.step_ns_per_node", steps*passes*1e9/tr.counts["phone.sync_step.nodes"])
	res.set("core.run_s", run)
	res.set("core.setup_s", run-steps)
	res.set("core.steps", float64(nSteps)/passes)
	res.set("core.allocs_per_run", tr.counts["core.mallocs"]/float64(nRuns))
	res.set("core.node_steps_per_s", tr.counts["core.node_steps"]/passes/wall)
	for _, algo := range []string{"pushpull", "fast", "memory", "sampled", "broadcast"} {
		res.set("core."+algo+"_run_s", perPass("core.run", algo))
	}
	res.set("runner.overhead_s", wall-build-run-perPass("phone.newnet", "")-perPass("runner.record_encode", ""))
	res.set("runner.record_encode_s", perPass("runner.record_encode", ""))
	res.set("runner.cells", ops)
	res.set("bench.trace_overhead_ratio", median(traced)/median(walls))
	runKernels(res, cfg.quick)
	if share := res.LayerShare["graph"]; !cfg.quick && (share < w.minBuild || share > w.maxBuild) {
		res.problem("graph.build_share %.3f is outside [%.2f, %.2f]: the workload no longer stresses the layer it exists for", share, w.minBuild, w.maxBuild)
	}
	return tr.write(filepath.Join(outDir(), "trace-"+cfg.workload+".jsonl"))
}
