// Package corpusd serves a generational corpus over HTTP: the run
// listing, per-run manifests and provenance, streamed cell records,
// trend and regression-compare reports, Prometheus-style metrics, and a
// small HTML dashboard. It is the query side of the corpus — the CLI
// subcommands answer one question per invocation; the daemon keeps the
// store open and answers them on demand, from the index layer where one
// exists.
//
// Consistency under concurrent writers costs nothing by construction:
// generation directories are immutable once committed (corpus.WriteRun
// stages into a ".tmp-" sibling and renames), and index.json is always
// replaced atomically. The server therefore snapshots the index per
// request — a loaded *corpus.Index is never mutated — and reloads it
// only when the file's stat (size, mtime) changes, so an `archive`
// appending generations underneath a running daemon can tear nothing:
// every response is computed against one committed index state, and
// every cells stream reads one immutable generation directory.
package corpusd

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gossip/internal/corpus"
)

// Server is the corpus HTTP service: an http.Handler over one store,
// with an optional corpus manifest file providing tolerance profiles
// and named grids (a declared grid name is usable wherever a run ID
// is — it content-addresses to one).
type Server struct {
	store *corpus.Store
	mf    *corpus.ManifestFile
	mux   *http.ServeMux
	met   *metricSet

	// load is store.EnsureIndex; a test wraps it to land a write on
	// either side of the read.
	load func() (*corpus.Index, error)

	mu    sync.Mutex
	idx   *corpus.Index
	stamp indexStamp
}

// indexStamp fingerprints the index file the cached snapshot was loaded
// from; a stat mismatch triggers a reload.
type indexStamp struct {
	size  int64
	mtime time.Time
}

// New builds a server over the store, ensuring its index exists (a
// pre-index store gets its first build here). mf may be nil.
func New(store *corpus.Store, mf *corpus.ManifestFile) (*Server, error) {
	if _, err := store.EnsureIndex(); err != nil {
		return nil, err
	}
	s := &Server{store: store, mf: mf, met: newMetricSet(), load: store.EnsureIndex}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /{$}", s.handleDashboard)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /runs", s.handleRuns)
	s.mux.HandleFunc("GET /runs/{sel}", s.handleRunDetail)
	s.mux.HandleFunc("GET /runs/{sel}/cells", s.handleRunCells)
	s.mux.HandleFunc("GET /runs/{sel}/report", s.handleRunReport)
	s.mux.HandleFunc("GET /trend/{id}", s.handleTrend)
	s.mux.HandleFunc("GET /compare", s.handleCompare)
	return s, nil
}

// ServeHTTP dispatches and meters every request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now() //gossiplint:allow detlint request-latency metric; never touches corpus bytes
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	// The mux stamps the matched pattern onto the request in place, so
	// it is readable here after dispatch; unmatched requests share one
	// label rather than letting arbitrary paths mint metric series.
	pat := r.Pattern
	if pat == "" {
		pat = "unmatched"
	}
	s.met.observe(pat, sw.code, time.Since(start)) //gossiplint:allow detlint request-latency metric; never touches corpus bytes
}

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// snapshot returns the index state every answer in one request is
// computed against. The cached snapshot is reused until index.json's
// stat changes; writers replace the file atomically, so a reload sees
// either the previous committed index or the next one, never a torn
// file. The cache is stamped with the stat taken before the load: a
// write that races the load then leaves a stamp older than the file and
// costs one more reload, where a stat taken after the load would put the
// new file's stamp on the old index and serve it until the next write.
func (s *Server) snapshot() (*corpus.Index, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fi, statErr := os.Stat(s.store.IndexPath())
	if statErr == nil && s.idx != nil && fi.Size() == s.stamp.size && fi.ModTime().Equal(s.stamp.mtime) {
		return s.idx, nil
	}
	idx, err := s.load()
	if err != nil {
		return nil, err
	}
	s.idx = idx
	s.stamp = indexStamp{}
	if statErr == nil {
		s.stamp = indexStamp{size: fi.Size(), mtime: fi.ModTime()}
	}
	return idx, nil
}

// resolveSel maps a declared grid name (from the manifest file) to its
// content-addressed run ID, preserving any @gen suffix; anything else
// passes through as an ordinary id[@gen] selector.
func (s *Server) resolveSel(sel string) string {
	if s.mf == nil {
		return sel
	}
	id, gen := corpus.SplitSelector(sel)
	rid, err := s.mf.RunID(id)
	if err != nil {
		return sel
	}
	if strings.Contains(sel, "@") {
		return rid + "@" + gen
	}
	return rid
}

// parseFilter reads the grid-coordinate filter parameters every
// listing/streaming endpoint shares: algo, model, n, density.
func parseFilter(r *http.Request) (corpus.Filter, error) {
	var f corpus.Filter
	q := r.URL.Query()
	f.Algo = q.Get("algo")
	f.Model = q.Get("model")
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return f, fmt.Errorf("bad n %q: %v", v, err)
		}
		f.N = n
	}
	if v := q.Get("density"); v != "" {
		d, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return f, fmt.Errorf("bad density %q: %v", v, err)
		}
		f.Density = d
	}
	return f, nil
}

func httpError(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

// notFoundCode maps a resolve error to its status: a selector that
// names nothing is the client's 404; anything else is the store's 500.
func notFoundCode(err error) int {
	if errors.Is(err, os.ErrNotExist) || strings.Contains(err.Error(), "no generation") {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleRuns answers GET /runs: the filtered run listing, straight from
// the index snapshot — byte-identical to `gossipsim archive -json`'s
// full scan (the equivalence the index tests pin). `rev` additionally
// restricts to runs whose latest generation carries that code revision.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	f, err := parseFilter(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	idx, err := s.snapshot()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	sums := idx.Summaries(f)
	if rev := r.URL.Query().Get("rev"); rev != "" {
		kept := sums[:0]
		for _, sum := range sums {
			if sum.Revision == rev {
				kept = append(kept, sum)
			}
		}
		sums = kept
	}
	w.Header().Set("Content-Type", "application/json")
	corpus.WriteJSON(w, sums)
}

// handleRunDetail answers GET /runs/{sel}: the resolved generation's
// manifest and provenance plus every sibling generation's.
func (s *Server) handleRunDetail(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Detail(s.resolveSel(r.PathValue("sel")))
	if err != nil {
		httpError(w, notFoundCode(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	corpus.WriteJSON(w, d)
}

// handleRunCells answers GET /runs/{sel}/cells: the generation's cell
// records as JSONL, optionally axis-filtered, streamed verbatim from
// the immutable generation directory — a byte-exact subsequence of the
// stored cells.jsonl, so no response can carry a torn record.
func (s *Server) handleRunCells(w http.ResponseWriter, r *http.Request) {
	run, err := s.store.Resolve(s.resolveSel(r.PathValue("sel")))
	if err != nil {
		httpError(w, notFoundCode(err), err)
		return
	}
	f, err := parseFilter(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := run.ReadCellsFiltered(f, func(line []byte) error {
		_, werr := w.Write(line)
		return werr
	}); err != nil {
		// Headers are gone; the most we can do is cut the stream short
		// mid-line, which clients detect as a torn (ignorable) tail.
		return
	}
}

// handleRunReport answers GET /runs/{sel}/report: the stored run in
// full — label, manifest, every cell record — as one JSON document
// (`gossipsim report -json` emits the same bytes).
func (s *Server) handleRunReport(w http.ResponseWriter, r *http.Request) {
	run, err := s.store.Resolve(s.resolveSel(r.PathValue("sel")))
	if err != nil {
		httpError(w, notFoundCode(err), err)
		return
	}
	v, err := corpus.NewReportView(run)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	corpus.WriteJSON(w, v)
}

// handleTrend answers GET /trend/{id}: each metric's mean across every
// stored generation of the run, oldest first, optionally restricted to
// the cells matching the axis filter (`gossipsim trend -json` emits the
// same bytes).
func (s *Server) handleTrend(w http.ResponseWriter, r *http.Request) {
	f, err := parseFilter(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	id, _ := corpus.SplitSelector(s.resolveSel(r.PathValue("id")))
	gens, _, err := s.store.Generations(id)
	if err != nil {
		httpError(w, notFoundCode(err), err)
		return
	}
	if len(gens) == 0 {
		httpError(w, http.StatusNotFound, fmt.Errorf("run %s has no readable generations", id))
		return
	}
	tr, err := corpus.TrendOf(gens, f)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	corpus.WriteJSON(w, tr)
}

// handleCompare answers GET /compare: the regression diff of two stored
// generations under a tolerance profile, verdict included (`gossipsim
// compare -json` emits the same bytes). Selectors come either as
// ref/new pairs or as one `id` (its latest generation against the
// previous — the "did this revision drift" form); `profile` names a
// built-in profile or one declared in the daemon's manifest file.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	refSel, newSel := q.Get("ref"), q.Get("new")
	if id := q.Get("id"); id != "" {
		if refSel != "" || newSel != "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf("pass id or ref/new, not both"))
			return
		}
		id = s.resolveSel(id)
		refSel, newSel = id+"@prev", id
	}
	if refSel == "" || newSel == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("compare needs ?id=<run> or ?ref=<sel>&new=<sel>"))
		return
	}
	prof, err := s.profile(q.Get("profile"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ref, err := s.store.Resolve(s.resolveSel(refSel))
	if err != nil {
		httpError(w, notFoundCode(err), err)
		return
	}
	cand, err := s.store.Resolve(s.resolveSel(newSel))
	if err != nil {
		httpError(w, notFoundCode(err), err)
		return
	}
	cmp, err := corpus.CompareRunsProfile(ref, cand, prof)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	corpus.WriteJSON(w, corpus.NewCompareResult(cmp))
}

// profile resolves a compare profile name: the manifest file's declared
// profiles first (they may shadow a built-in deliberately — a repo's
// "ci" gate is the repo's to define), then the built-ins. An empty name
// means "exact", matching the CLI's zero-tolerance default.
func (s *Server) profile(name string) (corpus.Profile, error) {
	if name == "" {
		name = "exact"
	}
	if s.mf != nil {
		if p, err := s.mf.Profile(name); err == nil {
			return p, nil
		}
	}
	return corpus.NamedProfile(name)
}
