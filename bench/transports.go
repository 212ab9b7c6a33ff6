package main

import (
	"fmt"
	"path/filepath"
	"time"

	"gossip/internal/core"
	"gossip/internal/gossipd"
	"gossip/internal/graph"
	"gossip/internal/phone"
	"gossip/internal/xrand"
)

// transports: the same machine sets over the three transports — the
// push-pull broadcast and the leader election on an ER graph over
// phone.Sync and goroutine-per-node phone.Async, then gossipd.Serve and
// gossipd.ServeElection over loopback TCP with the default StepDelay.
// A pass is a fixed mix of runs; an op is one run.
//
// The TCP part is deliberately small. gossipd opens one connection per
// exchange and each leaves a socket in TIME_WAIT for 60 s; at the sizes
// first tried (6 clusters of 128 nodes a pass) a run filled the kernel's
// 65 536-entry TIME_WAIT table in seven passes, after which every listen
// and connect slowed down and pass time doubled — and the state carried
// over into the next run. At about 200 connections a pass, back-to-back
// runs keep the table under a sixth of its size.
type mix struct {
	n                               int // ER graph size for the in-memory transports
	syncBroadcasts, asyncBroadcasts int // core.BroadcastOver(PushAndPull)
	syncLeaders, asyncLeaders       int // core.ElectLeaderOver
	serveRuns, serveN               int // gossipd.Serve
	electRuns, electN               int // gossipd.ServeElection
}

var (
	fullMix  = mix{n: 2048, syncBroadcasts: 100, asyncBroadcasts: 10, syncLeaders: 20, asyncLeaders: 2, serveRuns: 2, serveN: 16, electRuns: 1, electN: 8}
	quickMix = mix{n: 256, syncBroadcasts: 10, asyncBroadcasts: 2, syncLeaders: 4, asyncLeaders: 1, serveRuns: 1, serveN: 8, electRuns: 1, electN: 4}
)

func (m mix) runs() int {
	return m.syncBroadcasts + m.asyncBroadcasts + m.syncLeaders + m.asyncLeaders + m.serveRuns + m.electRuns
}

// Seed-stream tags: run i of a kind has the same seed in every pass, and
// over every transport.
const (
	tagBroadcast = iota + 1
	tagLeader
	tagServe
	tagElect
)

// tcpTotals sums what the gossipd reports of some passes say.
type tcpTotals struct {
	serveMs, electMs []float64 // Elapsed per run
	dials, wireBytes int64
	elapsed          time.Duration
	maxSteps         int32
	incomplete       int
}

func (t *tcpTotals) add(ms *[]float64, ok bool, elapsed time.Duration, dials, wireBytes int64, localSteps []int32) {
	*ms = append(*ms, float64(elapsed)/1e6)
	t.dials += dials
	t.wireBytes += wireBytes
	t.elapsed += elapsed
	for _, s := range localSteps {
		t.maxSteps = max(t.maxSteps, s)
	}
	if !ok {
		t.incomplete++
	}
}

// transportsOnce runs the mix once, traced when tr is non-nil, and adds
// the cluster reports to tcp.
func transportsOnce(res *result, m mix, g *graph.Graph, seed uint64, tr *tracer, tcp *tcpTotals, passNo int, memory bool) (pass, error) {
	p := pass{memory: memory}
	p.begin()
	root := tr.start(0, "bench.pass", "", passNo)
	op := passNo << 16

	// timed runs one op inside a span and counts it.
	timed := func(name, tag string, run func(span int) (bool, error)) error {
		op++
		t0 := time.Now()
		sp := tr.start(root, name, tag, op)
		ok, err := run(sp)
		tr.end(sp)
		p.opDone(float64(time.Since(t0)) / 1e6)
		if err != nil {
			return fmt.Errorf("pass %d: %s %s: %w", passNo, name, tag, err)
		}
		if !ok {
			res.problem("pass %d: a %s %s run did not complete", passNo, name, tag)
		}
		res.op(ok)
		return nil
	}

	// In-memory runs: core.*Over on Sync or Async, through the timing
	// decorator when traced.
	over := func(count int, kind string, tag uint64, tf core.TransportFactory, step string, run func(seed uint64, tf core.TransportFactory) bool) {
		for i := 0; i < count; i++ {
			timed("core.run", kind, func(span int) (bool, error) {
				use := tf
				if tr != nil {
					use = func(ms []phone.Machine) phone.Transport {
						return &timedTransport{Transport: tf(ms), tr: tr, parent: span, name: step, op: op}
					}
				}
				return run(xrand.SeedFor(seed, tag, uint64(i)), use), nil
			})
		}
	}
	broadcast := func(seed uint64, tf core.TransportFactory) bool {
		r := core.BroadcastOver(g, 0, core.PushAndPull, seed, 0, tf)
		tr.count("core.node_steps", float64(r.N)*float64(r.Steps))
		return r.Completed
	}
	leader := func(seed uint64, tf core.TransportFactory) bool {
		r := core.ElectLeaderOver(g, core.DefaultLeaderParams(m.n), seed, tf)
		tr.count("core.node_steps", float64(r.N)*float64(r.Steps))
		return r.Unique && r.AwareCount == r.N
	}
	over(m.syncBroadcasts, "broadcast", tagBroadcast, core.SyncTransport, "phone.sync_step", broadcast)
	over(m.asyncBroadcasts, "broadcast", tagBroadcast, core.AsyncTransport, "phone.async_step", broadcast)
	over(m.syncLeaders, "leader", tagLeader, core.SyncTransport, "phone.sync_step", leader)
	over(m.asyncLeaders, "leader", tagLeader, core.AsyncTransport, "phone.async_step", leader)

	for i := 0; i < m.serveRuns; i++ {
		err := timed("gossipd.serve", "", func(int) (bool, error) {
			r, err := gossipd.Serve(gossipd.Config{N: m.serveN, Seed: xrand.SeedFor(seed, tagServe, uint64(i))})
			if err != nil {
				return false, err
			}
			tcp.add(&tcp.serveMs, r.Completed, r.Elapsed, r.Dials, r.WireBytes, r.LocalSteps)
			return r.Completed, nil
		})
		if err != nil {
			return p, err
		}
	}
	for i := 0; i < m.electRuns; i++ {
		err := timed("gossipd.elect", "", func(int) (bool, error) {
			r, err := gossipd.ServeElection(gossipd.ElectionConfig{N: m.electN, Seed: xrand.SeedFor(seed, tagElect, uint64(i))})
			if err != nil {
				return false, err
			}
			// A unique leader every node knows.
			ok := r.Completed && r.Unique && r.AwareCount == r.N
			tcp.add(&tcp.electMs, ok, r.Elapsed, r.Dials, r.WireBytes, r.LocalSteps)
			return ok, nil
		})
		if err != nil {
			return p, err
		}
	}
	tr.end(root)
	p.end()
	return p, nil
}

func runTransports(cfg config, res *result) error {
	m := fullMix
	if cfg.quick {
		m = quickMix
	}
	var tcp tcpTotals // of the traced passes; untraced passes get a scratch one

	// Set-up: build and validate the graph, one untimed warm-up pass.
	var g *graph.Graph
	var setups []float64
	var warm []pass
	for i := 0; i < setupRounds(cfg, 3); i++ {
		start := time.Now()
		g = graph.ErdosRenyi(m.n, graph.PLogSquared(m.n), xrand.New(cfg.seed))
		if err := g.Validate(); err != nil {
			res.problem("graph.Validate: %v", err)
		}
		p, err := transportsOnce(res, m, g, cfg.seed, nil, &tcpTotals{}, 0, true)
		if err != nil {
			return err
		}
		warm = append(warm, p)
		setups = append(setups, time.Since(start).Seconds())
	}

	ops := float64(m.runs())
	if !cfg.trace {
		var passes []pass
		for start := time.Now(); keepGoing(cfg, len(passes), start); {
			p, err := transportsOnce(res, m, g, cfg.seed, nil, &tcpTotals{}, len(passes), false)
			if err != nil {
				return err
			}
			passes = append(passes, p)
		}
		reportPasses(res, ops, passes, warm, setups)
		return nil
	}

	// Traced passes alternate with untraced ones for the overhead ratio.
	tr := newTracer()
	var walls, traced []float64
	for start := time.Now(); keepGoing(cfg, len(traced), start); {
		p, err := transportsOnce(res, m, g, cfg.seed, nil, &tcpTotals{}, 2*len(traced), false)
		if err != nil {
			return err
		}
		walls = append(walls, p.wall.Seconds())
		if p, err = transportsOnce(res, m, g, cfg.seed, tr, &tcp, 2*len(traced)+1, false); err != nil {
			return err
		}
		traced = append(traced, p.wall.Seconds())
	}

	passes := float64(len(traced))
	perPass := func(name, tag string) float64 { s, _ := tr.total(name, tag); return s / passes }
	syncS, asyncS, run := perPass("phone.sync_step", ""), perPass("phone.async_step", ""), perPass("core.run", "")
	_, nSync := tr.total("phone.sync_step", "")
	_, nAsync := tr.total("phone.async_step", "")
	res.LayerShare = tr.layerShares()
	res.set("phone.sync_step_s", syncS)
	res.set("phone.sync_steps", float64(nSync)/passes)
	res.set("phone.async_step_s", asyncS)
	res.set("phone.opened", tr.counts["phone.opened"]/passes)
	res.set("phone.step_ns_per_node", syncS*passes*1e9/tr.counts["phone.sync_step.nodes"])
	res.set("core.run_s", run)
	res.set("core.setup_s", run-syncS-asyncS)
	res.set("core.steps", float64(nSync+nAsync)/passes)
	res.set("core.node_steps_per_s", tr.counts["core.node_steps"]/passes/run)
	res.set("core.broadcast_run_s", perPass("core.run", "broadcast"))
	res.set("core.leader_run_s", perPass("core.run", "leader"))
	res.set("gossipd.serve_run_p50_ms", median(tcp.serveMs))
	res.set("gossipd.elect_run_p50_ms", median(tcp.electMs))
	res.set("gossipd.exchanges_per_s", float64(tcp.dials)/tcp.elapsed.Seconds())
	res.set("gossipd.dials", float64(tcp.dials)/passes)
	res.set("gossipd.wire_bytes", float64(tcp.wireBytes)/passes)
	res.set("gossipd.max_local_steps", float64(tcp.maxSteps))
	res.set("gossipd.incomplete_runs", float64(tcp.incomplete))
	res.set("bench.trace_overhead_ratio", median(traced)/median(walls))
	runKernels(res, cfg.quick)
	return tr.write(filepath.Join(outDir(), "trace-"+cfg.workload+".jsonl"))
}
