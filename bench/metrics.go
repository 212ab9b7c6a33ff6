package main

import (
	"fmt"
	"math"
	"sort"

	"gossip/internal/stats"
)

// decl declares one metric: the harness emits exactly these names, and
// bench_test.go pins them to BENCHMARK.json (which adds the bounds).
type decl struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees, defined on every workload
// (README.md says what an "op" is on each). Printed by -trace 0.
var endToEnd = []decl{
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is measured by the traced pass, from outside each layer's
// public functions; a layer a workload does not call reads 0. Printed by
// -trace 1.
var perLayer = []decl{
	{"graph.build_s", "s", "lower"},
	{"graph.build_share", "ratio", "lower"},
	{"graph.edges_per_s", "1/s", "higher"},
	{"graph.alloc_mb", "MB", "lower"},
	{"graph.er_build_s", "s", "lower"},
	{"graph.regular_build_s", "s", "lower"},
	{"graph.chunglu_build_s", "s", "lower"},
	{"graph.complete_build_s", "s", "lower"},

	{"phone.newnet_s", "s", "lower"},
	{"phone.sync_step_s", "s", "lower"},
	{"phone.sync_steps", "count", "lower"},
	{"phone.opened", "count", "lower"},
	{"phone.step_ns_per_node", "ns", "lower"},
	{"phone.async_step_s", "s", "lower"},
	{"phone.dial_invert_ns_per_node", "ns", "lower"},

	{"msg.full_transfer_ns", "ns", "lower"},
	{"msg.sampled_transfer_ns", "ns", "lower"},
	{"msg.full_alloc_mb", "MB", "lower"},

	{"core.run_s", "s", "lower"},
	{"core.setup_s", "s", "lower"},
	{"core.steps", "count", "lower"},
	{"core.allocs_per_run", "count", "lower"},
	{"core.node_steps_per_s", "1/s", "higher"},
	{"core.pushpull_run_s", "s", "lower"},
	{"core.fast_run_s", "s", "lower"},
	{"core.memory_run_s", "s", "lower"},
	{"core.sampled_run_s", "s", "lower"},
	{"core.broadcast_run_s", "s", "lower"},
	{"core.leader_run_s", "s", "lower"},

	{"runner.overhead_s", "s", "lower"},
	{"runner.record_encode_s", "s", "lower"},
	{"runner.cells", "count", "higher"},

	{"corpus.archive_s", "s", "lower"},
	{"corpus.archive_p50_ms", "ms", "lower"},
	{"corpus.prune_s", "s", "lower"},
	{"corpus.load_index_s", "s", "lower"},
	{"corpus.records_s", "s", "lower"},
	{"corpus.compare_s", "s", "lower"},
	{"corpus.bytes_written", "B", "lower"},

	{"corpusd.runs_p50_ms", "ms", "lower"},
	{"corpusd.detail_p50_ms", "ms", "lower"},
	{"corpusd.cells_p50_ms", "ms", "lower"},
	{"corpusd.report_p50_ms", "ms", "lower"},
	{"corpusd.trend_p50_ms", "ms", "lower"},
	{"corpusd.compare_p50_ms", "ms", "lower"},
	{"corpusd.req_p99_ms", "ms", "lower"},
	{"corpusd.bytes_per_req", "B", "lower"},
	{"corpusd.handler_share", "ratio", "lower"},
	{"corpusd.stale_listings", "count", "lower"},

	{"gossipd.serve_run_p50_ms", "ms", "lower"},
	{"gossipd.elect_run_p50_ms", "ms", "lower"},
	{"gossipd.exchanges_per_s", "1/s", "higher"},
	{"gossipd.dials", "count", "lower"},
	{"gossipd.wire_bytes", "B", "lower"},
	{"gossipd.max_local_steps", "count", "lower"},
	{"gossipd.incomplete_runs", "count", "lower"},

	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

// metric is one reported number. Q1, Q3 and N describe the samples a
// median was taken over (absent for counts and ratios).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload: what the contract line is printed
// from and what -out files hold.
type result struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Quick      bool               `json:"quick,omitempty"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	ResultHash string             `json:"result_hash,omitempty"`
	Metrics    map[string]metric  `json:"metrics"`
	LayerShare map[string]float64 `json:"layer_share,omitempty"`
	Problems   []string           `json:"problems,omitempty"` // failed checks
	Notes      []string           `json:"notes,omitempty"`    // findings that do not fail the run
}

func newResult(cfg config) *result {
	r := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Quick: cfg.quick,
		Correct: true, Metrics: map[string]metric{}}
	for _, d := range r.decls() {
		r.Metrics[d.name] = metric{Unit: d.unit}
	}
	return r
}

// decls is the metric set this run reports: per-layer when traced,
// end-to-end otherwise.
func (r *result) decls() []decl {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// set records a metric of the run's set; a name outside it is a bug in
// the harness, not in the program measured.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not declared for trace=%v", name, r.Trace))
	}
	m.Value = v
	r.Metrics[name] = m
}

// setMedian records the median of samples with its quartiles and count.
func (r *result) setMedian(name string, samples []float64) {
	r.set(name, median(samples))
	m := r.Metrics[name]
	m.Q1, m.Q3 = quartiles(samples)
	m.N = len(samples)
	r.Metrics[name] = m
}

// problem records a failed correctness check.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it failed.
func (r *result) op(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Correct = false
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is stats.Median, with 0 for no samples (a metric that was not
// measured reads 0, not NaN, which JSON cannot carry).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so that
// compare's spreads read the same as the acceptance procedure's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(med)
}
