package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gossip/internal/corpus"
	"gossip/internal/corpusd"
	"gossip/internal/runner"
	"gossip/internal/stats"
)

// corpus_serve: a closed loop of 2 clients reads a corpusd server over
// real loopback HTTP, and client 0 replaces every writeEvery-th request
// with a Store.Archive of a new generation followed by Store.Prune keep 3
// — writes beside reads. An op is one read request.
//
// The writes go to a run ID of their own. The eight IDs the clients read
// never change, so every response but the /runs listing is checked byte
// for byte against the body recorded in set-up, and no read can race a
// generation being pruned (which would make requests fail by design).

const (
	serveClients = 2
	serveIDs     = 8
	serveGens    = 3
	writeEvery   = 200
)

// kinds are the request kinds of the fixed cycle, in order; request i is
// kind i%6 on run ID (i/6)%8.
var kinds = []struct{ name, path string }{
	{"runs", "/runs"},
	{"detail", "/runs/%s"},
	{"cells", "/runs/%s/cells?algo=pushpull"},
	{"report", "/runs/%s/report"},
	{"trend", "/trend/%s"},
	{"compare", "/compare?id=%s&profile=ci"},
}

// archived is one grid with its pre-computed results, ready to archive.
type archived struct {
	grid    runner.Grid
	results []runner.CellResult
}

func precompute(seed uint64, n int, quick bool) []archived {
	out := make([]archived, n)
	for i := range out {
		g := runner.Grid{
			Algos: []string{"pushpull", "sampled", "memory"}, Models: []string{"er"},
			Sizes: []int{64, 128, 256}, Densities: []float64{1, 2}, Reps: 2,
			Seed: seed*1000 + uint64(i),
		}
		if quick {
			g.Sizes = []int{64}
		}
		r := runner.Runner{Workers: 1, Seed: g.Seed}
		out[i] = archived{g, r.RunGrid(g)}
	}
	return out
}

// serveBed is one set-up: a populated store, the server over it, and the
// expected body of every request of the cycle.
type serveBed struct {
	dir    string
	store  *corpus.Store
	srv    *corpusd.Server
	ts     *httptest.Server
	urls   []string // the cycle: len(kinds) × serveIDs paths
	want   [][]byte // expected body per cycle position (nil for /runs)
	churn  archived
	gen    int // generations archived so far, names the next revision
	tracer *tracer
}

// provenance gives generation i a distinct revision (so same-revision
// dedupe does not swallow it) and an increasing creation time (so
// generation names sort in archive order).
func provenance(i int) corpus.Provenance {
	return corpus.Provenance{
		Workers:   1,
		CreatedAt: time.Date(2026, 1, 1, 0, 0, i, 0, time.UTC).Format(time.RFC3339),
		Revision:  fmt.Sprintf("bench-%06d", i),
	}
}

func (b *serveBed) archive(a archived) error {
	app, err := b.store.Archive(a.grid, provenance(b.gen), a.results)
	if err != nil {
		return err
	}
	if !app.Added {
		return fmt.Errorf("archive of generation %d was deduped", b.gen)
	}
	return nil
}

// write is the write path: a new generation of the churn run, then
// Prune keep 3, which must remove exactly the oldest one.
func (b *serveBed) write(parent, op int) error {
	tr := b.tracer
	w := tr.start(parent, "bench.write", "", op)
	defer tr.end(w)
	sp := tr.start(w, "corpus.archive", "", op)
	err := b.archive(b.churn)
	tr.end(sp)
	if err != nil {
		return err
	}
	b.gen++
	sp = tr.start(w, "corpus.prune", "", op)
	plan, err := b.store.Prune(corpus.PruneOptions{Keep: serveGens})
	tr.end(sp)
	if err != nil {
		return err
	}
	if len(plan.Victims) != 1 {
		return fmt.Errorf("prune keep=%d removed %d generations, want 1", serveGens, len(plan.Victims))
	}
	return nil
}

// newServeBed populates a store and boots the server over it. A bed for
// a traced run wraps the handler: the client passes its request span in a
// header and the handler's span hangs under it, so client time splits
// into corpusd and net/http + loopback.
func newServeBed(runs []archived, traced bool) (*serveBed, error) {
	dir, err := os.MkdirTemp(outDir(), "store-")
	if err != nil {
		return nil, err
	}
	b := &serveBed{dir: dir, churn: runs[serveIDs]}
	if b.store, err = corpus.Open(dir); err != nil {
		return nil, err
	}
	for b.gen = 0; b.gen < serveGens; b.gen++ {
		for _, a := range runs {
			if err := b.archive(a); err != nil {
				return nil, err
			}
		}
	}
	if b.srv, err = corpusd.New(b.store, nil); err != nil {
		return nil, err
	}
	var h http.Handler = b.srv
	if traced {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var parent, op int
			fmt.Sscan(r.Header.Get("X-Bench-Span"), &parent, &op)
			sp := b.tracer.start(parent, "corpusd.serve_http", "", op)
			b.srv.ServeHTTP(w, r)
			b.tracer.end(sp)
		})
	}
	b.ts = httptest.NewServer(h)
	for i := 0; i < serveIDs; i++ {
		id := corpus.GridID(runs[i].grid)
		for _, k := range kinds {
			url := k.path
			if k.name != "runs" {
				url = fmt.Sprintf(k.path, id)
			}
			b.urls = append(b.urls, url)
			var want []byte
			if k.name != "runs" {
				rec := httptest.NewRecorder()
				b.srv.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
				if rec.Code != http.StatusOK {
					return nil, fmt.Errorf("set-up GET %s: status %d: %s", url, rec.Code, rec.Body.String())
				}
				want = rec.Body.Bytes()
			}
			b.want = append(b.want, want)
		}
	}
	return b, nil
}

func (b *serveBed) close() {
	b.ts.Close()
	os.RemoveAll(b.dir)
}

// listingFresh reports whether /runs over HTTP equals corpus.WriteJSON
// of the index's summaries, byte for byte. Call it with no request in
// flight.
func (b *serveBed) listingFresh() (bool, error) {
	idx, err := b.store.LoadIndex()
	if err != nil {
		return false, err
	}
	var want bytes.Buffer
	if err := corpus.WriteJSON(&want, idx.Summaries(corpus.Filter{})); err != nil {
		return false, err
	}
	resp, err := http.Get(b.ts.URL + "/runs")
	if err != nil {
		return false, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	return resp.StatusCode == http.StatusOK && bytes.Equal(got, want.Bytes()), nil
}

// settle is the check after a region. corpusd stamps its index cache
// with a stat taken after the load, so a write landing between the two
// leaves /runs stale until the next write; with a writer beside the
// readers that happened after 2 regions in 10. It is a defect of the
// program and not of the run, and this PR may not touch the program: a
// stale listing is counted (corpusd.stale_listings, a note on the run)
// and must be fresh after one more write, or the check fails.
func (b *serveBed) settle(res *result) (stale bool, err error) {
	fresh, err := b.listingFresh()
	if err != nil || fresh {
		return false, err
	}
	res.Notes = append(res.Notes, "/runs was stale after the region (corpusd index-cache race) and fresh after the next write")
	if err := b.write(0, 0); err != nil {
		return true, err
	}
	if fresh, err = b.listingFresh(); err == nil && !fresh {
		res.problem("/runs is not WriteJSON(Index.Summaries) byte for byte, even after a further write")
	}
	return true, err
}

// reqSample is one finished read.
type reqSample struct {
	kind  int
	end   time.Duration // since the start of the timed region
	ms    float64
	bytes int
	ok    bool
	heap  uint64 // heapInUse after the read, on every heapEvery-th one (else 0)
}

// heapEvery spaces the heap probes of a client: about 30 a second.
const heapEvery = 64

// clientLoop is one closed-loop client: the next request goes out when
// the previous one has been read and checked.
func (b *serveBed) clientLoop(id int, start time.Time, stop func(sent int) bool, root int) (reads []reqSample, writeMs []float64, err error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var body bytes.Buffer
	tr := b.tracer
	for i := 0; !stop(i); i++ {
		if id == 0 && i%writeEvery == writeEvery-1 {
			t0 := time.Now()
			if err := b.write(root, i); err != nil {
				return nil, nil, err
			}
			writeMs = append(writeMs, float64(time.Since(t0))/1e6)
			continue
		}
		// Client 1 starts half a cycle in, so the two are never on the
		// same URL in lockstep.
		pos := (i + id*len(b.urls)/2) % len(b.urls)
		req, err := http.NewRequest("GET", b.ts.URL+b.urls[pos], nil)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		op := id<<24 | i
		sp := tr.start(root, "http.request", kinds[pos%len(kinds)].name, op)
		if tr != nil {
			req.Header.Set("X-Bench-Span", fmt.Sprint(sp, op))
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		tr.end(sp)
		now := time.Now()
		ok := err == nil && resp.StatusCode == http.StatusOK && body.Len() > 0 &&
			(b.want[pos] == nil || bytes.Equal(body.Bytes(), b.want[pos]))
		s := reqSample{kind: pos % len(kinds), end: now.Sub(start), ms: float64(now.Sub(t0)) / 1e6, bytes: body.Len(), ok: ok}
		if i%heapEvery == 0 {
			s.heap = heapInUse()
		}
		reads = append(reads, s)
	}
	return reads, writeMs, nil
}

// dirBytes is the size of the regular files under dir.
func dirBytes(dir string) (n int64) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// serveRegion is one measured stretch of the closed loop.
type serveRegion struct {
	pass
	reads  []reqSample
	writes []float64 // ms per Archive+Prune
}

// region runs both clients for the given time (quick mode: a fixed 2 000
// requests per client) under the bed's current tracer.
func (b *serveBed) region(cfg config, seconds float64) (serveRegion, error) {
	var r serveRegion
	r.begin()
	start := r.start
	root := b.tracer.start(0, "bench.pass", "", 0)
	stop := func(sent int) bool {
		if cfg.quick {
			return sent >= 2000
		}
		return time.Since(start).Seconds() >= seconds
	}
	reads := make([][]reqSample, serveClients)
	writes := make([][]float64, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads[c], writes[c], errs[c] = b.clientLoop(c, start, stop, root)
		}()
	}
	wg.Wait()
	b.tracer.end(root)
	r.end()
	for c := range reads {
		if errs[c] != nil {
			return r, errs[c]
		}
		r.reads = append(r.reads, reads[c]...)
		r.writes = append(r.writes, writes[c]...)
	}
	return r, nil
}

// windows cuts the region into half-second windows (the last, partial
// one dropped) and returns, per window, the reads completed per second
// and the peak of the heap probes in MB; the metrics are medians over
// the windows.
func (r serveRegion) windows() (rates, peaksMB []float64) {
	const window = 500 * time.Millisecond
	n := int(r.wall / window)
	if n == 0 { // quick mode can finish inside one window
		n = 1
	}
	rates, peaksMB = make([]float64, n), make([]float64, n)
	for _, s := range r.reads {
		if w := int(s.end / window); w < n {
			rates[w] += 1 / min(window, r.wall).Seconds()
			peaksMB[w] = max(peaksMB[w], float64(s.heap)/(1<<20))
		}
	}
	return rates, peaksMB
}

func runCorpusServe(cfg config, res *result) error {
	runs := precompute(cfg.seed, serveIDs+1, cfg.quick)

	// Set-up: populate a fresh store (9 run IDs × 3 generations), boot the
	// server, record the expected bodies, one untimed warm-up cycle.
	// Repeated for the median; the last bed is the one measured.
	var bed *serveBed
	var setups []float64
	for i := 0; i < setupRounds(cfg, 9); i++ {
		if bed != nil {
			bed.close()
		}
		start := time.Now()
		var err error
		if bed, err = newServeBed(runs, cfg.trace); err != nil {
			return err
		}
		if _, _, err := bed.clientLoop(1, start, func(sent int) bool { return sent >= len(bed.urls) }, 0); err != nil {
			bed.close()
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer bed.close()
	if fresh, err := bed.listingFresh(); err != nil {
		return err
	} else if !fresh {
		res.problem("/runs is not WriteJSON(Index.Summaries) byte for byte after set-up")
	}

	// measure runs one region and its checks.
	staleListings := 0.0
	measure := func(seconds float64) (serveRegion, error) {
		r, err := bed.region(cfg, seconds)
		if err != nil {
			return r, err
		}
		bad := 0
		for _, s := range r.reads {
			res.op(s.ok)
			if !s.ok {
				bad++
			}
		}
		if bad > 0 {
			res.problem("%d of %d responses were not 200 with the expected body", bad, len(r.reads))
		}
		stale, err := bed.settle(res)
		if stale {
			staleListings++
		}
		return r, err
	}
	if !cfg.trace {
		r, err := measure(cfg.seconds)
		if err != nil {
			return err
		}
		latMs := make([]float64, len(r.reads))
		for i, s := range r.reads {
			latMs[i] = s.ms
		}
		rates, peaks := r.windows()
		res.setMedian("ops_per_s", rates)
		res.setMedian("op_p50_ms", latMs)
		res.set("alloc_mb_per_op", float64(r.alloc)/(1<<20)/float64(len(r.reads)))
		res.setMedian("peak_heap_mb", peaks)
		res.setMedian("setup_s", setups)
		return nil
	}

	// Traced: half the time untraced, half traced, for the overhead ratio.
	plain, err := measure(cfg.seconds / 2)
	if err != nil {
		return err
	}
	tr := newTracer()
	bed.tracer = tr
	r, err := measure(cfg.seconds / 2)
	if err != nil {
		return err
	}

	// Probes: direct timed calls into corpus for what the handlers do
	// inside, which cannot be seen from outside corpusd.
	probes := tr.start(0, "bench.probes", "", 0)
	id := corpus.GridID(runs[0].grid)
	prof, err := corpus.NamedProfile("ci")
	if err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		sp := tr.start(probes, "corpus.load_index", "", i)
		_, err := bed.store.LoadIndex()
		tr.end(sp)
		if err != nil {
			return err
		}
		latest, err := bed.store.Resolve(id)
		if err != nil {
			return err
		}
		prev, err := bed.store.Resolve(id + "@prev")
		if err != nil {
			return err
		}
		sp = tr.start(probes, "corpus.records", "", i)
		_, err = latest.Records()
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.start(probes, "corpus.compare", "", i)
		_, err = corpus.CompareRunsProfile(prev, latest, prof)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	tr.end(probes)

	perCall := func(name string) float64 {
		s, n := tr.total(name, "")
		return s / float64(max(n, 1))
	}
	churnRun, err := bed.store.Resolve(corpus.GridID(bed.churn.grid))
	if err != nil {
		return err
	}
	var latMs []float64
	byKind := make([][]float64, len(kinds))
	var bodyBytes float64
	for _, s := range r.reads {
		latMs = append(latMs, s.ms)
		byKind[s.kind] = append(byKind[s.kind], s.ms)
		bodyBytes += float64(s.bytes)
	}
	res.LayerShare = tr.layerShares()
	res.set("corpus.archive_s", perCall("corpus.archive"))
	res.set("corpus.archive_p50_ms", median(r.writes))
	res.set("corpus.prune_s", perCall("corpus.prune"))
	res.set("corpus.load_index_s", perCall("corpus.load_index"))
	res.set("corpus.records_s", perCall("corpus.records"))
	res.set("corpus.compare_s", perCall("corpus.compare"))
	res.set("corpus.bytes_written", float64(dirBytes(churnRun.Dir)))
	for k, kind := range kinds {
		res.set("corpusd."+kind.name+"_p50_ms", median(byKind[k]))
	}
	res.set("corpusd.req_p99_ms", stats.Quantile(latMs, 0.99))
	res.set("corpusd.bytes_per_req", bodyBytes/float64(len(latMs)))
	handler, _ := tr.total("corpusd.serve_http", "")
	client, _ := tr.total("http.request", "")
	res.set("corpusd.handler_share", handler/client)
	res.set("corpusd.stale_listings", staleListings)
	plainRates, _ := plain.windows()
	tracedRates, _ := r.windows()
	res.set("bench.trace_overhead_ratio", median(plainRates)/median(tracedRates))
	runKernels(res, cfg.quick)
	for _, layer := range []string{"graph", "phone", "msg", "core", "runner"} {
		if res.LayerShare[layer] != 0 {
			res.problem("simulator layer %s has share %.3f on corpus_serve, want 0", layer, res.LayerShare[layer])
		}
	}
	return tr.write(filepath.Join(outDir(), "trace-"+cfg.workload+".jsonl"))
}
