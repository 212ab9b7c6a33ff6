// Package gossip is a from-scratch Go reproduction of
//
//	Robert Elsässer, Dominik Kaaser:
//	"On the Influence of Graph Density on Randomized Gossiping"
//	(IPDPS 2015, arXiv:1410.5355)
//
// It implements the random phone call model (Demers et al., Karp et al.)
// as a deterministic, parallel, synchronous-round simulator, the random
// graph models the paper analyzes (Erdős–Rényi G(n,p) and the
// configuration model), and the gossiping algorithms the paper studies:
//
//   - RunPushPull — the simple push–pull baseline (paper Algorithm 4),
//   - RunFastGossip — the three-phase fast-gossiping algorithm for random
//     graphs with O(log²n/loglog n) time and O(n·log n/loglog n)
//     transmissions (paper Algorithm 1, §3),
//   - RunMemoryGossip — the memory-model algorithm in which each node
//     remembers up to 4 links, achieving O(log n) time and O(n)
//     transmissions given a leader (paper Algorithm 2, §4),
//   - RunMemoryGossipWithElection — leader election (Algorithm 3), then Algorithm 2,
//   - RunBroadcast — single-message push/pull/push–pull baselines,
//   - RunMemoryRobustness — the §5 crash-failure experiment.
//
// Every table and figure of the paper's evaluation can be regenerated via
// Experiment (or the cmd/figures binary); ExperimentIDs is the experiment
// index, and each report's notes say how its measured results stand
// against the paper's.
//
// The package exports the single-run library and nothing else: the graph
// constructors (New*), the parameter schedules, the Run* entry points
// above, the machine and transport aliases of the transport seam, and
// Experiment / ExperimentIDs. Sweeps, the corpus and its HTTP service
// have no names here: they are the `gossipsim` subcommands, and each
// calls the internal package that does the work (internal/runner,
// internal/corpus, internal/corpusd) by its own name. The sections below describe those commands and the
// formats they read and write.
//
// Sweeps run on one scenario-sweep engine (internal/runner): an
// evaluation grid — algorithm × graph model × density × size × failure
// count × algorithm knobs (gather trees, link memory slots, walk
// probability, sampled-tracker size), replicated over seeds — expands
// into cells that run on a bounded worker pool, with per-cell seeds
// derived from the master seed and the cell index so results are
// bit-identical at any parallelism. `gossipsim sweep` (runner.Grid,
// runner.Runner) exposes it for custom sweeps — wider density ranges,
// larger sizes (the "sampled" estimator reaches n = 10⁶ in Θ(n·k)
// tracker memory), failure-rate scans — with aligned-table, CSV, and
// JSON-lines output. The paper experiments (internal/exp) share its
// worker pool and its per-cell repetition loop but not its grids: each
// builds a repetition's graph once, runs every algorithm of a table row
// on it, and seeds from (seed, n, rep).
//
// A sweep is one process: parallel over -workers, crash-safe with -out
// and -resume (a killed run continues from its completed prefix), and
// byte-identical for any worker count. A cell releases its graph
// (internal/graph's Graph.Release) once its algorithm returns, and an
// exact pushpull or fast cell its tracker (msg.Full.Release), so the next
// cell builds in their storage and a worker holds one of each at a time.
//
// # The sweep corpus
//
// Sweep results persist as runs (`gossipsim sweep -out`;
// corpus.ExecuteRun, corpus.OpenRun): a run is a directory holding
//
//	manifest.json   {"id", "grid", "cells", "workers", "created_at",
//	                 "revision", "version"} — the
//	                 canonical grid declaration (every axis explicit,
//	                 master seed included), the expanded cell count,
//	                 and provenance ("revision" is the code revision
//	                 that produced the results, stamped from the
//	                 binary's vcs build info). "id" is the
//	                 content-addressed run ID:
//	                 hex(SHA-256(canonical grid JSON))[:16], so
//	                 identical configurations map to identical IDs.
//	cells.jsonl     one runner.CellRecord JSON object per line, in cell-index
//	                 order: the full scenario ("index", "algo", "model",
//	                 "n", "density", "failures", optional knobs, "reps")
//	                 plus "metrics", a name → {"mean", "ci95", "min",
//	                 "max", "n"} aggregate map.
//
// cells.jsonl is streamed in strict cell order as cells complete —
// fsynced on close, with the manifest and its directory fsynced on
// create — so at every instant, including after a kill or power loss,
// the file is a valid prefix of the full sweep. `gossipsim sweep -out
// dir -resume` (corpus.ExecuteRun with resume) verifies the stored grid
// hash, truncates a torn final line, skips the completed prefix, and
// appends the missing suffix; because per-cell seeds derive from cell
// indices, the finished file is bit-identical to an uninterrupted
// run's. `gossipsim compare` (corpus.CompareRunsProfile, nonzero exit on
// regression) joins two stored runs on their grid coordinates and diffs
// every metric under absolute+relative tolerances; `gossipsim report`
// (corpus.Report) renders a stored run as a table plus ASCII
// density-vs-rounds plots. See examples/regressiongate for the
// archive→compare CI gate.
//
// # The generational corpus
//
// A corpus (`gossipsim archive -dir`; corpus.Open) holds each run ID as
// an ordered set of generations:
//
//	<corpus>/<id>/<gen>/manifest.json
//	<corpus>/<id>/<gen>/cells.jsonl
//
// where <gen> is derived from the manifest's provenance — compact
// creation timestamp + code revision, e.g.
// "20260726T104501Z-3f9ab12" — so names sort chronologically.
// Archiving a configuration that is already stored appends a new
// generation instead of discarding the new results: metric drift
// across code revisions stays visible. The single exception is a
// re-archive whose cells are bit-identical to the current latest
// generation at the same revision — same code, same deterministic
// results — which dedupes, with the decision and both generations'
// provenance reported (corpus.Appended), never silently. A directory
// still in the flat pre-generational layout (<corpus>/<id>/manifest.json)
// is not read: listings flag it as damaged and `prune -damaged` clears
// it.
//
// Selectors name generations everywhere a stored run is read
// (`gossipsim compare -dir`, `gossipsim trend`; Store.Resolve):
// "id" is the latest generation, "id@latest" and "id@prev" are
// relative, "id@0" is the oldest (ordinals count up from 0), and
// "id@<fragment>" pins by any unique fragment of the generation name —
// a revision works. `gossipsim compare -dir corpus <id>` with a single
// bare ID compares the latest generation against the previous one.
//
// Comparisons gate per-metric via tolerance profiles
// (`gossipsim compare -profile`; corpus.ResolveProfile) instead of one
// global abs/rel pair:
//
//	exact   zero tolerance everywhere: only bit-equal means pass — the
//	        replay gate.
//	ci      the cross-revision gate: "completed" exact (a
//	        configuration that stops completing is a regression),
//	        "steps" ±1 round absolute, "msgs_per_node" /
//	        "packets_per_node" / "opened_per_node" and unlisted
//	        metrics 5% relative.
//
// `gossipsim trend -dir corpus <id>` renders one configuration
// family's history — each metric's mean across every generation,
// oldest first, with per-generation provenance, deltas, and an ASCII
// plot of metric vs generation (corpus.TrendOf). `gossipsim prune -dir
// corpus [-keep n] [-age d] [-damaged] [-dry-run]` garbage-collects
// generations beyond the newest n and/or older than d; the newest
// readable generation of every run always survives, -damaged also
// clears unreadable wreckage (which listings skip-and-report rather
// than fail on), and -dry-run prints the plan without deleting.
//
// # The corpus service and index
//
// Every store maintains a query index, <corpus>/index.json: one entry
// per run ID holding the grid's axis ranges (algos, models, sizes,
// effective densities), the master seed and repetition count, the
// ordered generation list with provenance and completion state, and
// damage flags for unreadable directories. Because a grid is a cross
// product of its axes, axis-range membership is equivalent to "this
// run contains a matching cell", so listings and filter queries answer
// from the index in O(result) without opening a manifest — and the
// equivalence is pinned by tests requiring index-backed answers to be
// byte-identical to full-scan answers. Archive, Import and Prune keep
// the index current incrementally; every write replaces index.json
// atomically; and the index is entirely derived state —
// Store.RebuildIndex (or Store.EnsureIndex on a stale schema)
// reconstructs it from the run directories, which is also the repair
// path after a non-index-aware tool mutates the store.
//
// corpusd (`gossipsim serve -dir corpus [-addr :8477] [-manifest
// corpus.manifest.json]`; corpusd.New, corpusd.ListenAndServe) serves
// the store over HTTP:
//
//	GET /runs                   the filtered run listing (?algo=, ?model=,
//	                            ?n=, ?density=, ?rev=), from the index
//	GET /runs/{id[@gen]}        one generation in full: summary, manifest,
//	                            sibling generations
//	GET /runs/{id[@gen]}/cells  the stored cell records as JSONL,
//	                            axis-filterable, streamed verbatim
//	GET /runs/{id[@gen]}/report the whole run as one JSON document
//	GET /trend/{id}             per-metric means across the generations
//	GET /compare?id=<run>       regression diff latest-vs-previous (or
//	                            ?ref=&new= selectors), ?profile= gated
//	GET /healthz, /metrics      liveness and Prometheus-style metrics
//	GET /                       an HTML dashboard: run tables, trend
//	                            sparklines
//
// The daemon's JSON bytes are identical to the CLI's -json flags
// (`archive -json`, `compare -json`, `trend -json`, `report -json`) —
// one set of view types and one encoder serve both. Consistency under
// a concurrent `archive` is structural: generation directories are
// immutable once committed and index.json is replaced atomically, so
// the server snapshots the index per request and can never observe a
// torn generation or stream a torn cell line.
//
// A checked-in corpus manifest (corpus.manifest.json, read by
// corpus.LoadManifestFile) declares named tolerance profiles and named
// grids in one JSON document. Declared profiles are usable wherever a
// built-in name is (`compare -profile @file[:name]`, GET
// /compare?profile=); a declared grid content-addresses to its run ID,
// so its name doubles as a run selector in daemon queries.
//
// # The transport seam and node state machines
//
// Underneath the Run* entry points the gossiping algorithms are per-node
// state machines (NodeMachine) driven by a pluggable step executor
// (GossipTransport). A machine sees only local events:
//
//	OnStep(step)     decide this step's dial target, optional push
//	                 payload (NoDial opens nothing; DialUniform asks the
//	                 transport for a uniform neighbor) and answer: the
//	                 step-start payload sent back through every channel
//	                 opened to this node, whoever the caller.
//	OnReceive(from, payload)  absorb a delivered push or answer.
//	OnStepEnd(step)  apply deferred transitions once its exchange is done.
//
// Three transports execute the same machines:
//
//	phone.Sync          the simulator's canonical executor, under every
//	                    Run* entry point: synchronous rounds, parallel
//	                    phases split by receiving node, results
//	                    bit-identical to the historic substrate loops
//	                    at any GOMAXPROCS.
//	NewSeededTransport  phone.Sync on a seeded schedule: nodes, and each
//	                    node's callers, deliver in orders drawn from
//	                    (seed, step), and a node's OnStepEnd runs while
//	                    others still receive — orders a deployment
//	                    without a step barrier may take, replayable.
//	cmd/gossipd serve   the one truly concurrent transport: per-node
//	                    loopback TCP listeners, a static peer table and no
//	                    step barrier at all (internal/gossipd; cmd/gossipd
//	                    elect runs the leader election the same way).
//
// All seven algorithms run on the seam: the push–pull baseline, the
// sampled estimator, single-rumor broadcast (NewBroadcastMachines), the
// median-counter broadcast, fast-gossiping, the memory-model algorithm
// (spanning-tree construction and tree broadcast — Algorithm 2's Phases I
// and III), and leader election (Algorithm 3). Algorithm 2's Phase II is
// computed from the recorded schedule, not stepped on the transport: its
// outcome depends only on the recorded edges and the failure mask. Inside
// internal/core each has an …Over variant taking a TransportFactory to
// pick the executor; MachineDriver steps any transport until a completion
// predicate (see examples/asyncbroadcast for the 50-line version).
//
// # Adding an algorithm
//
// An algorithm is a machine set in internal/core plus one entry in
// internal/runner/algos.go — its sweep name, the Scenario knobs it
// reads, and a closure from (graph, scenario, seed) to metrics. The
// table is the only declaration: `gossipsim sweep -algos`, grid
// validation, the collapse of knob axes the algorithm ignores, and
// corpus join keys all follow from the entry. A machine dials through
// its own node's state only — phone.DialUniform, or phone.DialAvoid, the
// memory model's open-avoid dial (a random neighbor from N(v) \ l_v,
// remembered on success), which the transport draws from the node's
// private stream and memory after OnStep (the machine's Net() names the
// Net) — so no transport needs extra coordination. Keep receipt handling commutative
// (idempotent informs, minimum folds) and the results are identical
// under every transport; the conformance suite in internal/core pins
// exact equality for each such protocol. Fast-gossiping's walk routing
// is order-sensitive, so on a seeded schedule only its completion
// semantics are preserved.
//
// All entry points take explicit seeds and produce bit-identical results
// for a seed, independent of GOMAXPROCS.
//
// # Enforced invariants
//
// Determinism is enforced statically by gossiplint (internal/lint,
// cmd/gossiplint), the repo's own analyzer, run in CI over the whole
// module and locally via
//
//	go run ./cmd/gossiplint ./...
//
// which prints each finding as file:line:col: analyzer: message and
// exits 0 clean, 1 on findings, 2 on a usage or load error. It runs one
// analyzer, detlint. Module-wide it flags wall-clock reads
// (time.Now/Since/Until) and the global math/rand stream, called
// directly or through function values (t := time.Now; t()). The
// deterministic packages (internal/asciiplot, bitset, core, exp, graph,
// msg, par, phone, runner, stats, sweep, walk, xrand) are held to an
// import rule: none may import time, math/rand or math/rand/v2, nor any
// non-standard package outside that list, so a clock read in a helper
// package cannot reach a deterministic result, however many frames
// down it sits; the finding lands on the import line. In those packages
// detlint also flags multi-case selects (scheduler-order resolution)
// and order-sensitive work inside range-over-map — collecting values,
// non-keyed writes, float accumulation, printing, sending — while
// sanctioning the sorted-keys idiom.
//
// The other invariants are tests that exercise them:
//
//	view bytes    every corpus view corpusd serves equals the CLI's
//	              -json bytes, or corpus.WriteJSON's for the run detail
//	              (cmd/gossipsim TestServeMatchesCLIBytes)
//	seed lineage  every random graph model, algorithm and experiment
//	              moves with its seed (runner TestSeedSensitivity, exp
//	              TestExperimentsSeedSensitive)
//	lock scope    no mutex is held across I/O or a sleep (gossipd's
//	              TestStalled* and TestStepDelayLeavesNodeUnlocked,
//	              corpusd's TestStalledMetricsScrapeDoesNotBlockRequests)
//	durability    a failing fsync or close fails the write (corpus's
//	              *FailsOnSyncOrCloseError, TestJSONSinkReportsCloseError,
//	              TestTableWriteCSVCloseError)
//	leaks         every cluster shape and the HTTP server shut down to
//	              their goroutine baseline (the NoGoroutineLeak tests)
//
// Intentional exceptions are suppressed in place:
//
//	//gossiplint:allow <analyzer> <reason...>
//
// on the offending line or the line directly above. The reason is
// mandatory — a directive with an unknown analyzer or no reason is
// itself a build-failing diagnostic. The standing exceptions in the
// tree are listed by
//
//	grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=testdata '//gossiplint:allow [a-z]+ [^<]' .
//
// detlint's own tests live in internal/lint with analysistest-style
// fixtures under internal/lint/testdata/src, one small module each,
// loaded through the gate's own loader (lint.Load) — so the fixture's
// imports of its own helper packages, flagged or silent by the import
// rule, certify the loader CI runs.
package gossip
