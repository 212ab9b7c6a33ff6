package corpusd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gossip/internal/corpus"
	"gossip/internal/runner"
)

func testGrid(seed uint64) runner.Grid {
	return runner.Grid{
		Algos:     []string{"pushpull", "sampled"},
		Models:    []string{"er"},
		Sizes:     []int{64, 128},
		Densities: []float64{1, 2},
		Reps:      2,
		Seed:      seed,
	}
}

func runGrid(g runner.Grid) []runner.CellResult {
	r := &runner.Runner{Workers: 2}
	return r.RunGrid(g)
}

// archiveGen archives g's results under rev; distinct revisions append
// distinct generations (dedupe only collapses same-revision replays).
func archiveGen(t *testing.T, store *corpus.Store, g runner.Grid, rev string, results []runner.CellResult) *corpus.Appended {
	t.Helper()
	a, err := archive(store, g, rev, results)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// archive is archiveGen for callers off the test goroutine, which must not
// call t.Fatal.
func archive(store *corpus.Store, g runner.Grid, rev string, results []runner.CellResult) (*corpus.Appended, error) {
	return store.Archive(g, corpus.Provenance{
		Workers:   2,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Revision:  rev,
	}, results)
}

// newTestServer builds a store with two generations of one grid and one
// of another, and an httptest server over it.
func newTestServer(t *testing.T, mf *corpus.ManifestFile) (*httptest.Server, *corpus.Store, runner.Grid) {
	t.Helper()
	store, err := corpus.Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(1)
	res := runGrid(g)
	archiveGen(t, store, g, "rev-a", res)
	archiveGen(t, store, g, "rev-b", res)
	g2 := testGrid(2)
	g2.Algos = []string{"pushpull"}
	g2.Sizes = []int{64}
	archiveGen(t, store, g2, "rev-b", runGrid(g2))
	srv, err := New(store, mf)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, store, g
}

// get fetches a path, requiring the given status.
func get(t *testing.T, ts *httptest.Server, path string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d (body: %.200s)", path, resp.StatusCode, wantCode, b)
	}
	return b
}

// fullScanJSON renders the full-scan answer the index-backed endpoint
// must match byte for byte.
func fullScanJSON(t *testing.T, store *corpus.Store, f corpus.Filter) []byte {
	t.Helper()
	sums, _, err := store.Summaries(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := corpus.WriteJSON(&buf, sums); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunsEndpointMatchesFullScan(t *testing.T) {
	ts, store, _ := newTestServer(t, nil)
	for path, f := range map[string]corpus.Filter{
		"/runs":                      {},
		"/runs?algo=sampled":         {Algo: "sampled"},
		"/runs?algo=sampled&n=64":    {Algo: "sampled", N: 64},
		"/runs?density=2":            {Density: 2},
		"/runs?model=powerlaw":       {Model: "powerlaw"},
		"/runs?n=64&density=1":       {N: 64, Density: 1},
		"/runs?algo=pushpull&n=4096": {Algo: "pushpull", N: 4096},
	} {
		got := get(t, ts, path, http.StatusOK)
		want := fullScanJSON(t, store, f)
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s diverges from the full scan\nhttp: %s\nscan: %s", path, got, want)
		}
	}
	if body := get(t, ts, "/runs?n=bogus", http.StatusBadRequest); !strings.Contains(string(body), "bad n") {
		t.Errorf("bad n not diagnosed: %s", body)
	}
}

// TestRunsFreshAfterWriteRacesReload lands an Archive inside snapshot's
// reload, on either side of the index read, and requires the next /runs to
// list it. A write after the read is the one a stamp taken after the load
// hid: the old index under the new file's stat, stale until the next write.
func TestRunsFreshAfterWriteRacesReload(t *testing.T) {
	store, err := corpus.Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(1)
	res := runGrid(g)
	archiveGen(t, store, g, "rev-0", res)
	srv, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	get(t, ts, "/runs", http.StatusOK) // fill the cache

	for i, when := range []string{"before", "after"} {
		// One write makes the stat differ, so the request reloads; the
		// racing write lands during that reload. The hook runs on the
		// handler's goroutine under srv.mu, so the test sets it and reads
		// what it left under srv.mu, and the hook reports instead of failing.
		archiveGen(t, store, g, fmt.Sprintf("rev-%s-trigger", when), res)
		raced, raceErr := false, error(nil)
		srv.mu.Lock()
		srv.load = func() (*corpus.Index, error) {
			raced = true
			if i == 0 {
				_, raceErr = archive(store, g, "rev-before-read", res)
			}
			idx, err := store.EnsureIndex()
			if i == 1 {
				_, raceErr = archive(store, g, "rev-after-read", res)
			}
			return idx, err
		}
		srv.mu.Unlock()
		get(t, ts, "/runs", http.StatusOK) // the racing request may list either state
		srv.mu.Lock()
		srv.load = store.EnsureIndex // the hook has run once, and is done
		srv.mu.Unlock()
		if !raced || raceErr != nil {
			t.Fatalf("write %s the read: reloaded %v, racing Archive: %v", when, raced, raceErr)
		}
		if got, want := get(t, ts, "/runs", http.StatusOK), fullScanJSON(t, store, corpus.Filter{}); !bytes.Equal(got, want) {
			t.Errorf("write %s the read: the next /runs is stale\nhttp: %s\nscan: %s", when, got, want)
		}
	}
}

func TestRunsRevisionFilter(t *testing.T) {
	ts, _, g := newTestServer(t, nil)
	var sums []corpus.RunSummary
	if err := json.Unmarshal(get(t, ts, "/runs?rev=rev-b", http.StatusOK), &sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("rev-b runs = %d, want 2", len(sums))
	}
	if err := json.Unmarshal(get(t, ts, "/runs?rev=rev-a", http.StatusOK), &sums); err != nil {
		t.Fatal(err)
	}
	// rev-a is g's older generation: listings describe latest
	// generations only, so no run matches.
	if len(sums) != 0 {
		t.Fatalf("rev-a runs = %d, want 0 (%v)", len(sums), sums)
	}
	_ = g
}

func TestRunDetailReportCellsTrend(t *testing.T) {
	ts, store, g := newTestServer(t, nil)
	id := corpus.GridID(g)

	var d corpus.RunDetail
	if err := json.Unmarshal(get(t, ts, "/runs/"+id, http.StatusOK), &d); err != nil {
		t.Fatal(err)
	}
	if d.Summary.ID != id || len(d.Generations) != 2 || d.Summary.Revision != "rev-b" {
		t.Errorf("detail: %+v", d.Summary)
	}
	var prev corpus.RunDetail
	if err := json.Unmarshal(get(t, ts, "/runs/"+id+"@prev", http.StatusOK), &prev); err != nil {
		t.Fatal(err)
	}
	if prev.Summary.Revision != "rev-a" {
		t.Errorf("@prev resolved to revision %q, want rev-a", prev.Summary.Revision)
	}
	get(t, ts, "/runs/ffffffffffffffff", http.StatusNotFound)

	// The unfiltered cells stream is byte-identical to the stored file.
	run, err := store.Resolve(id)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(run.CellsPath())
	if err != nil {
		t.Fatal(err)
	}
	if got := get(t, ts, "/runs/"+id+"/cells", http.StatusOK); !bytes.Equal(got, raw) {
		t.Error("cells stream is not byte-identical to cells.jsonl")
	}
	// A filtered stream holds exactly the matching lines.
	got := get(t, ts, "/runs/"+id+"/cells?algo=sampled&n=64", http.StatusOK)
	for _, line := range bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n")) {
		var rec runner.CellRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("torn line in filtered stream: %v", err)
		}
		if rec.Algo != "sampled" || rec.N != 64 {
			t.Errorf("filtered stream leaked cell %s/%d", rec.Algo, rec.N)
		}
	}

	// The report endpoint emits the run's full ReportView.
	var rv corpus.ReportView
	if err := json.Unmarshal(get(t, ts, "/runs/"+id+"/report", http.StatusOK), &rv); err != nil {
		t.Fatal(err)
	}
	if rv.Manifest.ID != id || len(rv.Records) != run.Manifest.Cells {
		t.Errorf("report: id %s, %d records", rv.Manifest.ID, len(rv.Records))
	}

	// The trend endpoint matches corpus.TrendOf bytes.
	gens, _, err := store.Generations(id)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := corpus.TrendOf(gens, corpus.Filter{Algo: "pushpull"})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := corpus.WriteJSON(&want, tr); err != nil {
		t.Fatal(err)
	}
	if got := get(t, ts, "/trend/"+id+"?algo=pushpull", http.StatusOK); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("trend diverges\nhttp: %s\nlib:  %s", got, want.Bytes())
	}
	get(t, ts, "/trend/ffffffffffffffff", http.StatusNotFound)
}

func TestCompareEndpoint(t *testing.T) {
	ts, store, g := newTestServer(t, nil)
	id := corpus.GridID(g)

	// Latest vs previous: deterministic engine, same grid — identical.
	var cr corpus.CompareResult
	if err := json.Unmarshal(get(t, ts, "/compare?id="+id+"&profile=ci", http.StatusOK), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Regressed || cr.Comparison.Matched == 0 {
		t.Errorf("self-compare regressed: %s", cr.Summary)
	}

	// The bytes match the library's serialization of the same question.
	ref, err := store.Resolve(id + "@prev")
	if err != nil {
		t.Fatal(err)
	}
	cand, err := store.Resolve(id)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := corpus.NamedProfile("ci")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := corpus.CompareRunsProfile(ref, cand, prof)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := corpus.WriteJSON(&want, corpus.NewCompareResult(cmp)); err != nil {
		t.Fatal(err)
	}
	if got := get(t, ts, "/compare?id="+id+"&profile=ci", http.StatusOK); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("compare diverges\nhttp: %s\nlib:  %s", got, want.Bytes())
	}

	// Explicit ref/new selectors work; bad requests are diagnosed.
	if err := json.Unmarshal(get(t, ts, "/compare?ref="+id+"@0&new="+id+"@1", http.StatusOK), &cr); err != nil {
		t.Fatal(err)
	}
	get(t, ts, "/compare", http.StatusBadRequest)
	get(t, ts, "/compare?id="+id+"&ref="+id, http.StatusBadRequest)
	get(t, ts, "/compare?id="+id+"&profile=nope", http.StatusBadRequest)
	get(t, ts, "/compare?id=ffffffffffffffff", http.StatusNotFound)
}

func TestManifestNamesResolve(t *testing.T) {
	g := testGrid(1)
	mfPath := filepath.Join(t.TempDir(), "corpus.manifest.json")
	doc := fmt.Sprintf(`{
  "version": "gossip-corpus-manifest/1",
  "profiles": {"house": {"default": {"rel": 0.5}}},
  "grids": {"ref": {"algos": ["pushpull", "sampled"], "models": ["er"],
            "sizes": [64, 128], "densities": [1, 2], "reps": 2, "seed": %d}}
}`, g.Seed)
	if err := os.WriteFile(mfPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	mf, err := corpus.LoadManifestFile(mfPath)
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _ := newTestServer(t, mf)

	// A declared grid name is a run selector everywhere an ID is.
	var d corpus.RunDetail
	if err := json.Unmarshal(get(t, ts, "/runs/ref", http.StatusOK), &d); err != nil {
		t.Fatal(err)
	}
	if d.Summary.ID != corpus.GridID(g) {
		t.Errorf("named grid resolved to %s, want %s", d.Summary.ID, corpus.GridID(g))
	}
	if err := json.Unmarshal(get(t, ts, "/runs/ref@prev", http.StatusOK), &d); err != nil {
		t.Fatal(err)
	}
	if d.Summary.Revision != "rev-a" {
		t.Errorf("named grid @prev resolved to %q", d.Summary.Revision)
	}
	// Declared profiles resolve in /compare alongside built-ins.
	var cr corpus.CompareResult
	if err := json.Unmarshal(get(t, ts, "/compare?id=ref&profile=house", http.StatusOK), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Comparison.Prof.Name != "house" {
		t.Errorf("profile %q, want house", cr.Comparison.Prof.Name)
	}
}

func TestHealthzMetricsDashboard(t *testing.T) {
	ts, _, g := newTestServer(t, nil)
	if body := get(t, ts, "/healthz", http.StatusOK); string(body) != "ok\n" {
		t.Errorf("healthz = %q", body)
	}
	get(t, ts, "/runs", http.StatusOK)
	get(t, ts, "/runs/"+corpus.GridID(g), http.StatusOK)
	body := string(get(t, ts, "/metrics", http.StatusOK))
	for _, want := range []string{
		`corpusd_requests_total{path="GET /healthz",code="200"} 1`,
		`corpusd_requests_total{path="GET /runs",code="200"} 1`,
		`corpusd_requests_total{path="GET /runs/{sel}",code="200"} 1`,
		`corpusd_request_seconds_count{path="GET /runs"} 1`,
		"corpusd_index_runs 2",
		"corpusd_index_generations 3",
		"corpusd_index_damaged 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if html := string(get(t, ts, "/", http.StatusOK)); !strings.Contains(html, "gossip corpus") {
		t.Error("dashboard did not render")
	}
	get(t, ts, "/nope", http.StatusNotFound)
}

// TestUnreadableRunFlaggedNotFatal: a run directory whose manifest.json
// is a symlink loop fails to open with ELOOP (as root too). The index
// rebuild must flag it as damage, as the full scan does, so a store
// without index.json still boots the daemon and still archives.
func TestUnreadableRunFlaggedNotFatal(t *testing.T) {
	store, err := corpus.Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(1)
	res := runGrid(g)
	archiveGen(t, store, g, "rev-a", res)
	loop := store.Path("deadbeef00000000")
	if err := os.MkdirAll(loop, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(corpus.ManifestName, filepath.Join(loop, corpus.ManifestName)); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(store.IndexPath()); err != nil {
		t.Fatal(err)
	}
	idx, err := store.RebuildIndex()
	if err != nil {
		t.Fatalf("RebuildIndex: %v", err)
	}
	if idx.DamagedCount() != 1 {
		t.Errorf("DamagedCount = %d, want 1", idx.DamagedCount())
	}

	if err := os.Remove(store.IndexPath()); err != nil {
		t.Fatal(err)
	}
	srv, err := New(store, nil)
	if err != nil {
		t.Fatalf("New on a store with an unreadable run: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if body := string(get(t, ts, "/metrics", http.StatusOK)); !strings.Contains(body, "corpusd_index_damaged 1\n") {
		t.Errorf("metrics missing corpusd_index_damaged 1:\n%s", body)
	}
	if got, want := get(t, ts, "/runs", http.StatusOK), fullScanJSON(t, store, corpus.Filter{}); !bytes.Equal(got, want) {
		t.Errorf("/runs diverges from the full scan\nhttp: %s\nscan: %s", got, want)
	}

	if err := os.Remove(store.IndexPath()); err != nil {
		t.Fatal(err)
	}
	archiveGen(t, store, g, "rev-b", res)
}

// TestServeWhileArchiving is the concurrency guarantee: a daemon
// serving queries while `archive` appends generations underneath must
// never emit a torn cells stream or a half-visible generation — every
// response reflects one committed store state.
func TestServeWhileArchiving(t *testing.T) {
	store, err := corpus.Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	g := runner.Grid{
		Algos:     []string{"pushpull"},
		Models:    []string{"er"},
		Sizes:     []int{64},
		Densities: []float64{1, 2},
		Reps:      1,
		Seed:      5,
	}
	res := runGrid(g)
	id := corpus.GridID(g)
	archiveGen(t, store, g, "rev-0", res)
	expected := corpus.NewManifest(g).Cells

	srv, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const extraGens = 6
	var wg sync.WaitGroup
	wg.Add(1)
	writerDone := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(writerDone)
		for i := 1; i <= extraGens; i++ {
			archiveGen(t, store, g, fmt.Sprintf("rev-%d", i), res)
		}
	}()

	client := ts.Client()
	lastGens := 0
	for done := false; !done; {
		select {
		case <-writerDone:
			done = true
		default:
		}
		// The listing: parses, and our run's generation count only ever
		// moves forward — an index snapshot is one committed state.
		var sums []corpus.RunSummary
		body := get(t, ts, "/runs", http.StatusOK)
		if err := json.Unmarshal(body, &sums); err != nil {
			t.Fatalf("torn /runs response: %v\n%s", err, body)
		}
		for _, sum := range sums {
			if sum.ID != id {
				continue
			}
			if sum.Generations < lastGens {
				t.Fatalf("generations went backwards: %d after %d", sum.Generations, lastGens)
			}
			lastGens = sum.Generations
			// A listed generation is a committed one: complete, with a
			// stamped revision.
			if !sum.Complete || sum.CellsDone != expected || sum.Revision == "" {
				t.Fatalf("half-visible generation in listing: %+v", sum)
			}
		}
		// The cells stream: every line parses, and the count is exactly
		// one committed generation's — never a prefix of one.
		resp, err := client.Get(ts.URL + "/runs/" + id + "/cells")
		if err != nil {
			t.Fatal(err)
		}
		stream, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))
		if len(lines) != expected {
			t.Fatalf("cells stream has %d lines, want %d", len(lines), expected)
		}
		for _, line := range lines {
			var rec runner.CellRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("torn cell line: %v\n%s", err, line)
			}
		}
	}
	wg.Wait()

	// Settled: the index-backed listing equals the full scan again, and
	// every appended generation is visible.
	got := get(t, ts, "/runs", http.StatusOK)
	want := fullScanJSON(t, store, corpus.Filter{})
	if !bytes.Equal(got, want) {
		t.Errorf("post-archive listing diverges from full scan\nhttp: %s\nscan: %s", got, want)
	}
	var d corpus.RunDetail
	if err := json.Unmarshal(get(t, ts, "/runs/"+id, http.StatusOK), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Generations) != extraGens+1 {
		t.Errorf("detail shows %d generations, want %d", len(d.Generations), extraGens+1)
	}
}

// stalledClient is a response writer whose client never reads: its first
// Write closes entered, and every Write blocks until release is closed.
type stalledClient struct {
	header           http.Header
	entered, release chan struct{}
	once             sync.Once
}

func (w *stalledClient) Header() http.Header { return w.header }
func (w *stalledClient) WriteHeader(int)     {}
func (w *stalledClient) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(b), nil
}

// TestStalledMetricsScrapeDoesNotBlockRequests: a /metrics scraper that
// stops reading stalls only its own request. Every request takes the
// metric lock to record its latency, so handleMetrics must render under
// that lock and write to the client only after releasing it.
func TestStalledMetricsScrapeDoesNotBlockRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	w := &stalledClient{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		ts.Config.Handler.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	}()
	defer func() { close(w.release); <-scraped }()
	<-w.entered
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GET /healthz did not finish while a /metrics scrape was stalled")
	}
}
