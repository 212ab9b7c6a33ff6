package corpus

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gossip/internal/runner"
)

// archiveAt appends records to the store as a generation stamped with
// a fake revision and timestamp — the library-level stand-in for
// archiving the same configuration from different code revisions.
func archiveAt(t *testing.T, s *Store, g runner.Grid, recs []runner.CellRecord, rev string, day int) *Appended {
	t.Helper()
	m := NewManifest(g)
	m.Workers = 2
	m.CreatedAt = time.Date(2026, 7, day, 12, 0, 0, 0, time.UTC).Format(time.RFC3339)
	m.Revision = rev
	a, err := s.appendGen(m, recs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// drift returns a copy of recs with every steps mean nudged by d — a
// stand-in for a code revision that changed the dynamics.
func drift(recs []runner.CellRecord, d float64) []runner.CellRecord {
	out := make([]runner.CellRecord, len(recs))
	for i, r := range recs {
		out[i] = r
		out[i].Metrics = make(map[string]runner.MetricAgg, len(r.Metrics))
		for k, v := range r.Metrics {
			if k == "steps" {
				v.Mean += d
			}
			out[i].Metrics[k] = v
		}
	}
	return out
}

// TestGenerationResolution: the satellite acceptance flow — archive
// one grid at two fake revisions, list both generations, resolve
// selectors, compare latest-vs-previous by default, pin with @gen, and
// prune -keep 1 (dry-run first) down to the newer one.
func TestGenerationResolution(t *testing.T) {
	g := testGrid(21)
	results := runner.Records(runGrid(t, g, 2))
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	a1 := archiveAt(t, store, g, results, "aaa111", 1)
	a2 := archiveAt(t, store, g, drift(results, 1), "bbb222", 2)
	if !a1.Added || !a2.Added {
		t.Fatalf("archives not both appended: %+v %+v", a1, a2)
	}
	id := a1.Run.Manifest.ID

	gens, damaged, err := store.Generations(id)
	if err != nil || len(damaged) != 0 {
		t.Fatal(err, damaged)
	}
	if len(gens) != 2 {
		t.Fatalf("listed %d generations, want 2", len(gens))
	}
	if gens[0].Manifest.Revision != "aaa111" || gens[1].Manifest.Revision != "bbb222" {
		t.Fatalf("generation provenance wrong: %s, %s", gens[0].Manifest.Revision, gens[1].Manifest.Revision)
	}
	if gens[0].Gen == gens[1].Gen {
		t.Fatalf("generations share a name: %s", gens[0].Gen)
	}

	// Selector resolution: bare ID = latest; @latest/@prev; ordinals;
	// name fragments (the revision is part of the name).
	for sel, wantRev := range map[string]string{
		id:                     "bbb222",
		id + "@latest":         "bbb222",
		id + "@prev":           "aaa111",
		id + "@0":              "aaa111",
		id + "@1":              "bbb222",
		id + "@aaa111":         "aaa111",
		id + "@" + gens[1].Gen: "bbb222",
	} {
		r, err := store.Resolve(sel)
		if err != nil {
			t.Errorf("Resolve(%s): %v", sel, err)
			continue
		}
		if r.Manifest.Revision != wantRev {
			t.Errorf("Resolve(%s) = rev %s, want %s", sel, r.Manifest.Revision, wantRev)
		}
	}
	for _, sel := range []string{id + "@2", id + "@nope", "feedbeef"} {
		if _, err := store.Resolve(sel); err == nil {
			t.Errorf("Resolve(%s) succeeded, want error", sel)
		}
	}

	// Compare defaults to latest vs previous: the injected +1 steps
	// drift shows up.
	ref, _ := store.Resolve(id + "@prev")
	cand, _ := store.Resolve(id)
	cmp, err := CompareRunsProfile(ref, cand, UniformProfile(Tolerance{}))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failing == 0 {
		t.Error("latest-vs-previous at zero tolerance missed the drift")
	}
	if cmp.Ref != id+"@"+gens[0].Gen || cmp.New != id+"@"+gens[1].Gen {
		t.Errorf("comparison labels lost generations: %s vs %s", cmp.Ref, cmp.New)
	}

	// Dry-run prune removes nothing.
	plan, err := store.Prune(PruneOptions{Keep: 1, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Victims) != 1 || plan.Victims[0].Gen != gens[0].Gen {
		t.Fatalf("dry-run plan = %+v, want exactly the older generation", plan.Victims)
	}
	if gens2, _, _ := store.Generations(id); len(gens2) != 2 {
		t.Fatalf("dry-run removed a generation: %d left", len(gens2))
	}
	// A real prune -keep 1 removes exactly the older one.
	plan, err = store.Prune(PruneOptions{Keep: 1})
	if err != nil || len(plan.Victims) != 1 {
		t.Fatal(err, plan.Victims)
	}
	gens, _, err = store.Generations(id)
	if err != nil || len(gens) != 1 {
		t.Fatal(err, len(gens))
	}
	if gens[0].Manifest.Revision != "bbb222" {
		t.Errorf("prune kept the wrong generation: %s", gens[0].Manifest.Revision)
	}
}

// TestNumericFragmentSelector: an all-digit revision must stay usable
// as an @fragment selector — only an in-range integer is an ordinal.
func TestNumericFragmentSelector(t *testing.T) {
	g := testGrid(27)
	recs := runner.Records(runGrid(t, g, 2))
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	archiveAt(t, store, g, recs, "4312067", 1) // a hex short-hash that is all decimal digits
	archiveAt(t, store, g, drift(recs, 1), "77", 2)
	id := GridID(g)

	r, err := store.Resolve(id + "@4312067")
	if err != nil || r.Manifest.Revision != "4312067" {
		t.Errorf("numeric revision fragment did not resolve: %v", err)
	}
	if r, err := store.Resolve(id + "@77"); err != nil || r.Manifest.Revision != "77" {
		t.Errorf("numeric revision fragment 77 did not resolve: %v", err)
	}
	// In-range integers stay ordinals.
	if r, err := store.Resolve(id + "@0"); err != nil || r.Manifest.Revision != "4312067" {
		t.Errorf("@0 ordinal broke: %v", err)
	}
	if r, err := store.Resolve(id + "@20260702"); err != nil || r.Manifest.Revision != "77" {
		t.Errorf("timestamp fragment did not resolve: %v", err)
	}
}

// TestStrandedStagingPruned: a ".tmp-" staging directory left inside a
// run by a crashed write neither shadows the run's generations nor
// survives prune -damaged.
func TestStrandedStagingPruned(t *testing.T) {
	g := testGrid(28)
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	a := archiveAt(t, store, g, runner.Records(runGrid(t, g, 2)), "rev", 1)
	id := a.Run.Manifest.ID
	stranded := filepath.Join(store.Path(id), ".tmp-write-dead")
	if err := os.MkdirAll(stranded, 0o755); err != nil {
		t.Fatal(err)
	}
	if gens, damaged, err := store.Generations(id); err != nil || len(gens) != 1 || len(damaged) != 0 {
		t.Fatalf("run with a stranded staging dir mis-listed: %d gens, %d damaged, %v", len(gens), len(damaged), err)
	}
	plan, err := store.Prune(PruneOptions{Damaged: true})
	if err != nil || len(plan.Victims) != 1 || plan.Victims[0].Dir != stranded {
		t.Fatalf("damaged prune = %+v, %v", plan, err)
	}
	if _, err := os.Stat(stranded); !os.IsNotExist(err) {
		t.Error("stranded staging dir survived the prune")
	}
}

// TestFlatLayoutReportedDamaged: the pre-generational layout — run files
// directly under <store>/<id> — is no longer read or migrated, but it
// must not become invisible: listings flag the entry as damaged, saying
// what it is, and prune -damaged clears it.
func TestFlatLayoutReportedDamaged(t *testing.T) {
	g := testGrid(22)
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(g)
	m.CreatedAt = "2026-07-01T00:00:00Z"
	if _, err := WriteRun(store.Path(m.ID), m, runner.Records(runGrid(t, g, 2))); err != nil {
		t.Fatal(err)
	}

	runs, damaged, err := store.Runs()
	if err != nil || len(runs) != 0 {
		t.Fatalf("Runs over a flat store = %d runs, %v", len(runs), err)
	}
	if len(damaged) != 1 || damaged[0].Dir != store.Path(m.ID) || !strings.Contains(damaged[0].Err.Error(), "pre-generational flat run") {
		t.Fatalf("flat run not flagged: %+v", damaged)
	}
	if _, err := store.Resolve(m.ID); err == nil || !strings.Contains(err.Error(), "pre-generational flat run") {
		t.Errorf("Resolve of a flat run = %v, want the flat-run error", err)
	}
	plan, err := store.Prune(PruneOptions{Damaged: true})
	if err != nil || len(plan.Victims) != 1 || plan.Victims[0].Dir != store.Path(m.ID) {
		t.Fatalf("damaged prune = %+v, %v", plan, err)
	}
	if _, damaged, _ := store.Runs(); len(damaged) != 0 {
		t.Errorf("store still damaged after prune: %+v", damaged)
	}
}

// TestRunsSkipsDamaged: one torn run must not brick the whole store —
// listing returns the healthy runs and reports the wreck (so prune can
// delete it) instead of erroring.
func TestRunsSkipsDamaged(t *testing.T) {
	g := testGrid(23)
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	good := archiveAt(t, store, g, runner.Records(runGrid(t, g, 2)), "rev", 1)

	// A torn run: a directory with a manifest that does not parse
	// (e.g. a crash mid-write before the durable-write path existed).
	torn := filepath.Join(store.Dir, "deadbeef00000000")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(torn, ManifestName), []byte(`{"id": "deadbeef0`), 0o644); err != nil {
		t.Fatal(err)
	}

	runs, damaged, err := store.Runs()
	if err != nil {
		t.Fatalf("Runs errored on a store with one torn run: %v", err)
	}
	if len(runs) != 1 || runs[0].Manifest.ID != good.Run.Manifest.ID {
		t.Fatalf("healthy run not listed: %d runs", len(runs))
	}
	if len(damaged) != 1 || damaged[0].Dir != torn {
		t.Fatalf("torn run not reported: %+v", damaged)
	}
	// The filtered listing still works over the damaged store: the torn
	// run's manifest is never touched, the hit list excludes it, and the
	// damage is reported rather than silently dropped.
	hits, selDamaged, err := store.Summaries(Filter{Algo: "pushpull"})
	if err != nil || len(hits) != 1 {
		t.Fatalf("Summaries over damaged store = %d, %v", len(hits), err)
	}
	if len(selDamaged) != 1 || selDamaged[0].Dir != torn {
		t.Fatalf("Summaries did not report the damaged run: %+v", selDamaged)
	}
	// Prune -damaged deletes the wreck (and only it).
	plan, err := store.Prune(PruneOptions{Damaged: true})
	if err != nil || len(plan.Victims) != 1 || plan.Victims[0].Dir != torn {
		t.Fatalf("damaged prune = %+v, %v", plan, err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Error("torn run survived the prune")
	}
	if _, damaged, _ := store.Runs(); len(damaged) != 0 {
		t.Errorf("store still damaged after prune: %+v", damaged)
	}
}

// TestPruneByAge: MaxAge removes old generations but never a run's
// newest one.
func TestPruneByAge(t *testing.T) {
	g := testGrid(24)
	results := runner.Records(runGrid(t, g, 2))
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	archiveAt(t, store, g, results, "r1", 1)
	archiveAt(t, store, g, drift(results, 1), "r2", 2)
	archiveAt(t, store, g, drift(results, 2), "r3", 20)
	now := time.Date(2026, 7, 21, 0, 0, 0, 0, time.UTC)

	plan, err := store.Prune(PruneOptions{MaxAge: 10 * 24 * time.Hour, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Victims) != 2 {
		t.Fatalf("age prune removed %d generations, want 2: %+v", len(plan.Victims), plan.Victims)
	}
	id := GridID(g)
	gens, _, err := store.Generations(id)
	if err != nil || len(gens) != 1 || gens[0].Manifest.Revision != "r3" {
		t.Fatalf("age prune kept %+v, want only r3 (err %v)", gens, err)
	}

	// Even an ancient sole generation survives: a run's only results
	// are never garbage.
	plan, err = store.Prune(PruneOptions{MaxAge: time.Hour, Now: now.AddDate(1, 0, 0)})
	if err != nil || len(plan.Victims) != 0 {
		t.Fatalf("age prune deleted a run's last generation: %+v, %v", plan.Victims, err)
	}
}

// TestFilterDensityEpsilon: a CLI-parsed -density value must match
// computed effective densities that differ only in floating-point
// noise (satellite: `-density 0.3`-style filters).
func TestFilterDensityEpsilon(t *testing.T) {
	step := 0.1 // IEEE runtime sum: 0.1+0.1+0.1 = 0.30000000000000004 != 0.3
	s := runner.Scenario{Algo: "pushpull", Model: "er", N: 64, Density: step + step + step}
	if s.Density == 0.3 {
		t.Fatal("test setup: expected 0.1+0.1+0.1 != 0.3")
	}
	if !(Filter{Density: 0.3}).MatchScenario(s) {
		t.Error("density 0.3 filter rejected a 0.1*3 cell")
	}
	if (Filter{Density: 0.31}).MatchScenario(s) {
		t.Error("density 0.31 filter matched a 0.3 cell")
	}
	// Unchanged exact semantics elsewhere: zero still means "any".
	if !(Filter{}).MatchScenario(s) {
		t.Error("zero filter no longer matches everything")
	}
}

// TestCompareProfileCI: the ci profile passes steps drift of ±1 round
// while failing any completed drift (the acceptance gate), and gates
// message volume relatively.
func TestCompareProfileCI(t *testing.T) {
	rec := func(steps, completed, msgs float64) []runner.CellRecord {
		return []runner.CellRecord{{
			Scenario: runner.Scenario{Algo: "pushpull", Model: "er", N: 64, Density: 1, Reps: 1},
			Metrics: map[string]runner.MetricAgg{
				"steps":         {Mean: steps, N: 1},
				"completed":     {Mean: completed, N: 1},
				"msgs_per_node": {Mean: msgs, N: 1},
			},
		}}
	}
	ci, err := NamedProfile("ci")
	if err != nil {
		t.Fatal(err)
	}
	ref := rec(10, 1, 100)

	if c := CompareProfile(ref, rec(11, 1, 100), ci); c.Regressed() {
		t.Errorf("ci profile failed a +1 steps drift: %s", c.Summary())
	}
	if c := CompareProfile(ref, rec(9, 1, 100), ci); c.Regressed() {
		t.Errorf("ci profile failed a -1 steps drift: %s", c.Summary())
	}
	if c := CompareProfile(ref, rec(12, 1, 100), ci); !c.Regressed() {
		t.Error("ci profile passed a +2 steps drift")
	}
	if c := CompareProfile(ref, rec(10, 1-1e-9, 100), ci); !c.Regressed() {
		t.Error("ci profile passed a completed drift — completion must be exact")
	}
	if c := CompareProfile(ref, rec(10, 1, 104), ci); c.Regressed() {
		t.Errorf("ci profile failed a 4%% msgs drift: %s", c.Summary())
	}
	if c := CompareProfile(ref, rec(10, 1, 110), ci); !c.Regressed() {
		t.Error("ci profile passed a 10% msgs drift")
	}

	if _, err := NamedProfile("nope"); err == nil || !strings.Contains(err.Error(), "ci") {
		t.Errorf("unknown profile error should list the known ones: %v", err)
	}
	// The profile's verdict table names it.
	c := CompareProfile(ref, ref, ci)
	c.Ref, c.New = "a", "b"
	var sb strings.Builder
	c.Table().Render(&sb)
	if !strings.Contains(sb.String(), "profile ci") {
		t.Errorf("table title missing profile name:\n%s", sb.String())
	}
}

// TestTrendAcrossGenerations: the trend report tracks a metric's mean
// across generations and carries each generation's provenance.
func TestTrendAcrossGenerations(t *testing.T) {
	g := testGrid(25)
	results := runner.Records(runGrid(t, g, 2))
	store, err := Open(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	archiveAt(t, store, g, results, "r1", 1)
	archiveAt(t, store, g, drift(results, 1), "r2", 2)
	archiveAt(t, store, g, drift(results, 3), "r3", 3)

	gens, _, err := store.Generations(GridID(g))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TrendOf(gens, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 3 {
		t.Fatalf("trend has %d points, want 3", len(tr.Points))
	}
	if tr.Points[0].Revision != "r1" || tr.Points[2].Revision != "r3" {
		t.Errorf("trend lost provenance: %+v", tr.Points)
	}
	base := tr.Points[0].Means["steps"]
	if d := tr.Points[1].Means["steps"] - base; math.Abs(d-1) > 1e-9 {
		t.Errorf("generation 1 steps delta = %g, want +1", d)
	}
	if d := tr.Points[2].Means["steps"] - base; math.Abs(d-3) > 1e-9 {
		t.Errorf("generation 2 steps delta = %g, want +3", d)
	}
	if n := tr.Points[0].Cells; n != len(results) {
		t.Errorf("trend point covers %d cells, want %d", n, len(results))
	}

	// Rendering: table plus per-metric plots with provenance columns.
	var sb strings.Builder
	tr.Render(&sb)
	out := sb.String()
	for _, want := range []string{"trend: run", "revision", "r2", "steps vs generation", "Δsteps"} {
		if !strings.Contains(out, want) {
			t.Errorf("trend render missing %q:\n%s", want, out)
		}
	}

	// A filter narrows the family; filtering everything out still
	// renders (zero cells), and a foreign run is rejected.
	tr2, err := TrendOf(gens, Filter{Algo: "sampled"})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Points[0].Cells >= tr.Points[0].Cells || tr2.Points[0].Cells == 0 {
		t.Errorf("filtered trend covers %d cells, want a proper nonzero subset of %d", tr2.Points[0].Cells, tr.Points[0].Cells)
	}
	g2 := testGrid(26)
	store2, _ := Open(filepath.Join(t.TempDir(), "c2"))
	other := archiveAt(t, store2, g2, runner.Records(runGrid(t, g2, 2)), "x", 1)
	if _, err := TrendOf(append(gens, other.Run), Filter{}); err == nil {
		t.Error("trend accepted generations of two different runs")
	}
}

// FuzzPickGenName resolves any selector against any name list, the
// names given as one newline-separated string (so never an empty list).
// It must not panic, an accepted index must be in range, and the empty
// list must be an error whatever the selector.
func FuzzPickGenName(f *testing.F) {
	for _, seed := range [][2]string{
		{"20240101T000000Z-aaa111\n20240102T000000Z-bbb222", ""},
		{"20240101T000000Z-aaa111\n20240102T000000Z-bbb222", "prev"},
		{"a\nb\nc", "1"},
		{"a\nb\nc", "-1"},
		{"only", "prev"},
		{"x1\nx2", "x"},
		{"123\n456", "99"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, joined, sel string) {
		names := strings.Split(joined, "\n")
		if i, err := pickGenName("run", names, sel); err == nil && (i < 0 || i >= len(names)) {
			t.Fatalf("selector %q picked index %d of %d names", sel, i, len(names))
		}
		if i, err := pickGenName("run", nil, sel); err == nil {
			t.Fatalf("selector %q picked index %d of no names", sel, i)
		}
	})
}
