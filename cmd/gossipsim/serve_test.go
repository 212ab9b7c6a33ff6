package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossip/internal/corpus"
)

// archiveTwoGens imports run into a fresh corpus twice under two fake
// revisions — two generations of one ID — and returns the corpus dir
// and the run ID. The second revision carries <, > and &, which an
// encoder escaping HTML, as encoding/json's defaults do, writes
// differently from corpus.WriteJSON.
func archiveTwoGens(t *testing.T, run string) (string, string) {
	t.Helper()
	corpusDir := filepath.Join(t.TempDir(), "corpus")
	var out, errw strings.Builder
	for _, rev := range []string{"rev-a", "rev-<b>&c"} {
		if code := archiveMain([]string{"-dir", corpusDir, "-add", run, "-rev", rev}, &out, &errw); code != 0 {
			t.Fatalf("archive -rev %s exited %d: %s", rev, code, errw.String())
		}
	}
	r, err := corpus.OpenRun(run)
	if err != nil {
		t.Fatal(err)
	}
	return corpusDir, r.Manifest.ID
}

// startServe boots `gossipsim serve` on a free port against dir and
// returns the base URL; the server shuts down with the test.
func startServe(t *testing.T, args []string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	exited := make(chan int, 1)
	var out, errw strings.Builder
	go func() {
		exited <- serveCorpus(ctx, append(args, "-addr", "127.0.0.1:0"),
			func(a net.Addr) { addrCh <- a }, &out, &errw)
	}()
	t.Cleanup(func() {
		cancel()
		if code := <-exited; code != 0 {
			t.Errorf("serve exited %d: %s", code, errw.String())
		}
	})
	select {
	case a := <-addrCh:
		return "http://" + a.String()
	case code := <-exited:
		t.Fatalf("serve exited %d before binding: %s", code, errw.String())
		return ""
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d (%.200s)", url, resp.StatusCode, b)
	}
	return b
}

// TestServeMatchesCLIBytes is the no-drift guarantee at the command
// layer: every corpus view the daemon serves is byte-identical to the
// CLI's -json answer to the same question — the run listing, the
// compare verdict, the trend and the report, of both generations — and
// the run detail, which has no -json flag, to corpus.WriteJSON of the
// store's own Detail. A second encoder anywhere on either side shows up
// here, since the latest revision needs HTML escaping switched off.
func TestServeMatchesCLIBytes(t *testing.T) {
	run := writeRun(t, 4)
	corpusDir, id := archiveTwoGens(t, run)
	base := startServe(t, []string{"-dir", corpusDir})

	if body := httpGet(t, base+"/healthz"); string(body) != "ok\n" {
		t.Fatalf("healthz = %q", body)
	}

	for _, c := range []struct {
		path string
		main func(args []string, stdout, stderr io.Writer) int
		args []string
	}{
		{"/runs", archiveMain, []string{"-json"}}, // index-backed vs a full scan
		{"/runs?algo=sampled&n=64", archiveMain, []string{"-json", "-algo", "sampled", "-n", "64"}},
		{"/compare?id=" + id + "&profile=ci", compareMain, []string{"-json", "-profile", "ci", id}},
		{"/trend/" + id, trendMain, []string{"-json", id}},
		{"/runs/" + id + "/report", reportMain, []string{"-json", id}},
		{"/runs/" + id + "@prev/report", reportMain, []string{"-json", id + "@prev"}},
	} {
		var cli, errw strings.Builder
		if code := c.main(append([]string{"-dir", corpusDir}, c.args...), &cli, &errw); code != 0 {
			t.Fatalf("%v exited %d: %s", c.args, code, errw.String())
		}
		if got := httpGet(t, base+c.path); string(got) != cli.String() {
			t.Errorf("GET %s != %v\nhttp: %s\ncli:  %s", c.path, c.args, got, cli.String())
		}
	}

	store, err := corpus.Open(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []string{id, id + "@prev"} {
		d, err := store.Detail(sel)
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := corpus.WriteJSON(&want, d); err != nil {
			t.Fatal(err)
		}
		if got := httpGet(t, base+"/runs/"+sel); string(got) != want.String() {
			t.Errorf("GET /runs/%s != WriteJSON(Detail)\nhttp: %s\nwant: %s", sel, got, want.String())
		}
	}

	// The metrics endpoint carries the request counters.
	if m := string(httpGet(t, base+"/metrics")); !strings.Contains(m, "corpusd_requests_total") ||
		!strings.Contains(m, "corpusd_index_runs 1") {
		t.Errorf("metrics incomplete:\n%s", m)
	}
}

// TestServeManifestFlag wires the checked-in manifest schema through
// the daemon: declared grids resolve as run selectors and declared
// profiles gate /compare.
func TestServeManifestFlag(t *testing.T) {
	run := writeRun(t, 7)
	corpusDir, id := archiveTwoGens(t, run)
	r, err := corpus.OpenRun(run)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Manifest.Grid
	mfPath := filepath.Join(t.TempDir(), "corpus.manifest.json")
	doc := fmt.Sprintf(`{
  "version": "gossip-corpus-manifest/1",
  "profiles": {"house": {"default": {"rel": 0.5}}},
  "grids": {"nightly": {"algos": ["pushpull", "sampled"], "models": ["er"],
            "sizes": [64, 128], "densities": [1, 2], "reps": 2, "seed": %d}}
}`, g.Seed)
	if err := os.WriteFile(mfPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	base := startServe(t, []string{"-dir", corpusDir, "-manifest", mfPath})

	var d corpus.RunDetail
	if err := json.Unmarshal(httpGet(t, base+"/runs/nightly"), &d); err != nil {
		t.Fatal(err)
	}
	if d.Summary.ID != id {
		t.Errorf("named grid resolved to %s, want %s", d.Summary.ID, id)
	}
	var cr corpus.CompareResult
	if err := json.Unmarshal(httpGet(t, base+"/compare?id=nightly&profile=house"), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Comparison.Prof.Name != "house" || cr.Regressed {
		t.Errorf("declared profile compare: %+v", cr.Summary)
	}

	// The same declared profile gates the CLI via -profile @file:name —
	// one schema, both consumers.
	var out, errw strings.Builder
	if code := compareMain([]string{"-dir", corpusDir, "-json", "-profile", "@" + mfPath + ":house", id}, &out, &errw); code != 0 {
		t.Fatalf("compare -profile @file exited %d: %s", code, errw.String())
	}
	if got := httpGet(t, base+"/compare?id=nightly&profile=house"); string(got) != out.String() {
		t.Errorf("@file profile CLI bytes != daemon bytes\nhttp: %s\ncli:  %s", got, out.String())
	}
}

// TestServeMainUsage pins the flag-error paths.
func TestServeMainUsage(t *testing.T) {
	var out, errw strings.Builder
	if code := serveMain([]string{"-bogus"}, &out, &errw); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
	if code := serveMain([]string{"stray"}, &out, &errw); code != 2 {
		t.Errorf("stray arg exited %d, want 2", code)
	}
	errw.Reset()
	if code := serveMain([]string{"-manifest", filepath.Join(t.TempDir(), "nope.json")}, &out, &errw); code != 1 {
		t.Errorf("missing manifest exited %d, want 1: %s", code, errw.String())
	}
}

// TestArchiveJSONListsDamageOnStderr keeps stdout machine-readable:
// exactly one JSON document, with warnings elsewhere.
func TestArchiveJSONListsDamageOnStderr(t *testing.T) {
	run := writeRun(t, 9)
	corpusDir, _ := archiveTwoGens(t, run)
	// A torn run entry alongside the good one.
	torn := filepath.Join(corpusDir, "deadbeef00000000")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(torn, "manifest.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if code := archiveMain([]string{"-dir", corpusDir, "-json"}, &out, &errw); code != 0 {
		t.Fatalf("archive -json exited %d: %s", code, errw.String())
	}
	var sums []corpus.RunSummary
	if err := json.Unmarshal([]byte(out.String()), &sums); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, out.String())
	}
	if len(sums) != 1 {
		t.Errorf("listing has %d runs, want 1", len(sums))
	}
	if !strings.Contains(errw.String(), "unreadable") {
		t.Errorf("damage warning missing from stderr: %q", errw.String())
	}
}
