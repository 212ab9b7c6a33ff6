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
// and the run ID.
func archiveTwoGens(t *testing.T, run string) (string, string) {
	t.Helper()
	corpusDir := filepath.Join(t.TempDir(), "corpus")
	var out, errw strings.Builder
	for _, rev := range []string{"rev-a", "rev-b"} {
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
// layer: the daemon's JSON answers are byte-identical to the CLI -json
// flags' answers to the same questions.
func TestServeMatchesCLIBytes(t *testing.T) {
	run := writeRun(t, 4)
	corpusDir, id := archiveTwoGens(t, run)
	base := startServe(t, []string{"-dir", corpusDir})

	if body := httpGet(t, base+"/healthz"); string(body) != "ok\n" {
		t.Fatalf("healthz = %q", body)
	}

	// GET /runs (index-backed) vs `archive -json` (full scan).
	var cli, errw strings.Builder
	if code := archiveMain([]string{"-dir", corpusDir, "-json"}, &cli, &errw); code != 0 {
		t.Fatalf("archive -json exited %d: %s", code, errw.String())
	}
	if got := httpGet(t, base+"/runs"); string(got) != cli.String() {
		t.Errorf("GET /runs != archive -json\nhttp: %s\ncli:  %s", got, cli.String())
	}
	cli.Reset()
	if code := archiveMain([]string{"-dir", corpusDir, "-json", "-algo", "sampled", "-n", "64"}, &cli, &errw); code != 0 {
		t.Fatal("filtered archive -json failed")
	}
	if got := httpGet(t, base+"/runs?algo=sampled&n=64"); string(got) != cli.String() {
		t.Errorf("filtered GET /runs != archive -json\nhttp: %s\ncli:  %s", got, cli.String())
	}

	// GET /compare vs `compare -json` (same selectors, same profile).
	cli.Reset()
	if code := compareMain([]string{"-dir", corpusDir, "-json", "-profile", "ci", id}, &cli, &errw); code != 0 {
		t.Fatalf("compare -json exited %d: %s", code, errw.String())
	}
	if got := httpGet(t, base+"/compare?id="+id+"&profile=ci"); string(got) != cli.String() {
		t.Errorf("GET /compare != compare -json\nhttp: %s\ncli:  %s", got, cli.String())
	}

	// GET /trend/{id} vs `trend -json`.
	cli.Reset()
	if code := trendMain([]string{"-dir", corpusDir, "-json", id}, &cli, &errw); code != 0 {
		t.Fatalf("trend -json exited %d: %s", code, errw.String())
	}
	if got := httpGet(t, base+"/trend/"+id); string(got) != cli.String() {
		t.Errorf("GET /trend != trend -json\nhttp: %s\ncli:  %s", got, cli.String())
	}

	// GET /runs/{sel}/report vs `report -json`.
	cli.Reset()
	if code := reportMain([]string{"-dir", corpusDir, "-json", id + "@prev"}, &cli, &errw); code != 0 {
		t.Fatalf("report -json exited %d: %s", code, errw.String())
	}
	if got := httpGet(t, base+"/runs/"+id+"@prev/report"); string(got) != cli.String() {
		t.Errorf("GET /report != report -json\nhttp: %s\ncli:  %s", got, cli.String())
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
