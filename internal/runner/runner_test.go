package runner

import (
	"maps"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"gossip/internal/xrand"
)

func TestMapOrderAndCoverage(t *testing.T) {
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i * 3
	}
	var calls atomic.Int64
	out := Map(8, cells, func(i, c int) int {
		calls.Add(1)
		return c + i
	})
	if calls.Load() != 100 {
		t.Fatalf("fn called %d times, want 100", calls.Load())
	}
	for i, v := range out {
		if v != i*4 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*4)
		}
	}
}

func TestMapEmptyAndSerial(t *testing.T) {
	if got := Map(4, nil, func(i, c int) int { return c }); len(got) != 0 {
		t.Fatalf("empty cells gave %v", got)
	}
	out := Map(1, []int{5, 6}, func(i, c int) int { return c * c })
	if out[0] != 25 || out[1] != 36 {
		t.Fatalf("serial map wrong: %v", out)
	}
}

func TestGridExpansion(t *testing.T) {
	g := Grid{
		Algos:     []string{"memory", "fast"},
		Models:    []string{"er", "regular"},
		Sizes:     []int{512, 1024},
		Densities: []float64{0.5, 2},
		Failures:  []FailureSpec{{Count: 0}, {Frac: 0.01}},
		Reps:      3,
	}
	cells := g.Scenarios()
	// memory gets the full failures axis; fast (no crash model) collapses
	// to one zero-failure cell per combination.
	want := 2*2*2*2 + 2*2*2
	if len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		if c.Reps != 3 {
			t.Fatalf("cell %d has reps %d", i, c.Reps)
		}
		if c.Algo != "memory" && c.Failures != 0 {
			t.Fatalf("failure cell leaked to %s: %+v", c.Algo, c)
		}
	}
	// Failures innermost: memory cells alternate 0, n/100.
	if cells[0].Failures != 0 || cells[1].Failures != 5 {
		t.Fatalf("failure resolution wrong: %d, %d", cells[0].Failures, cells[1].Failures)
	}
	// Algo outermost.
	if cells[0].Algo != "memory" || cells[16].Algo != "fast" {
		t.Fatalf("algo nesting wrong: %s, %s", cells[0].Algo, cells[16].Algo)
	}
}

func TestGridDefaults(t *testing.T) {
	cells := Grid{Sizes: []int{256}}.Scenarios()
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Algo != "pushpull" || c.Model != "er" || c.Failures != 0 || c.Reps != 1 {
		t.Fatalf("bad defaults: %+v", c)
	}
}

func TestParseFailureSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		n    int
		want int
	}{
		{"0", 1000, 0},
		{"250", 1000, 250},
		{"1%", 1000, 10},
		{"2.5%", 10000, 250},
	} {
		f, err := ParseFailureSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseFailureSpec(%q): %v", tc.in, err)
		}
		if got := f.Resolve(tc.n); got != tc.want {
			t.Errorf("ParseFailureSpec(%q).Resolve(%d) = %d, want %d", tc.in, tc.n, got, tc.want)
		}
	}
	for _, bad := range []string{"", "x", "-3", "101%", "12%%", "NaN%"} {
		if _, err := ParseFailureSpec(bad); err == nil {
			t.Errorf("ParseFailureSpec(%q) accepted", bad)
		}
	}
}

func TestGridValidate(t *testing.T) {
	if err := (Grid{Algos: []string{"pushpull"}, Models: []string{"er"}, Sizes: []int{64}}).Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	for _, bad := range []Grid{
		{Algos: []string{"nope"}},
		{Models: []string{"nope"}},
		{Sizes: []int{1}},
		{Densities: []float64{0}},
		// Non-finite floats compare false to every bound; they must not
		// slip through to graph.ErdosRenyi or the corpus's JSON encoder.
		{Densities: []float64{math.NaN()}},
		{Densities: []float64{math.Inf(1)}},
		{Densities: []float64{math.Inf(-1)}},
		{WalkProbs: []float64{math.NaN()}},
		{WalkProbs: []float64{math.Inf(1)}},
		// Failure counts that would crash every node (the robustness
		// simulator needs a surviving leader), absolute and relative —
		// including against the defaulted size axis.
		{Sizes: []int{128}, Failures: []FailureSpec{{Count: 128}}},
		{Sizes: []int{128, 4096}, Failures: []FailureSpec{{Frac: 1}}},
		{Failures: []FailureSpec{{Count: 1 << 20}}},
		// A negative count is reachable from a manifest file's named grid
		// and from `gossipsim -failures`; xrand.SampleK would panic on it.
		{Failures: []FailureSpec{{Count: -1}}},
		// The link memory holds at most phone.MemorySlots links;
		// phone.NewLinkMemory panics past it.
		{Algos: []string{"memory"}, MemSlots: []int{5}},
		{Algos: []string{"memory"}, MemSlots: []int{-1}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid grid %+v accepted", bad)
		}
	}
	// A count valid for the larger size but not the smaller is rejected.
	if err := (Grid{Sizes: []int{128, 4096}, Failures: []FailureSpec{{Count: 200}}}).Validate(); err == nil {
		t.Error("failure count exceeding the smallest size accepted")
	}
}

// sweepJSONL runs a small real grid at the given worker count and returns
// the rendered JSONL stream.
func sweepJSONL(t *testing.T, workers int) string {
	t.Helper()
	g := Grid{
		Algos:    []string{"pushpull", "memory"},
		Models:   []string{"er", "complete"},
		Sizes:    []int{128, 256},
		Failures: []FailureSpec{{Count: 0}, {Frac: 0.05}},
		Reps:     2,
		Seed:     42,
	}
	// pushpull collapses the failures axis (4 cells); memory keeps it (8).
	r := &Runner{Workers: workers}
	results := r.RunGrid(g)
	if len(results) != 12 {
		t.Fatalf("got %d results, want 12", len(results))
	}
	var b strings.Builder
	if err := WriteJSONL(&b, results); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// The repetition loop visits rep 0…reps-1 in order and keeps one
// accumulator per observation name, including a name only some
// repetitions report.
func TestAccumulate(t *testing.T) {
	var order []int
	accs := Accumulate(4, func(rep int) Metrics {
		order = append(order, rep)
		m := Metrics{"x": float64(rep), "y": 10}
		if rep == 2 {
			m["rare"] = 7
		}
		return m
	})
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("repetitions visited as %v, want 0 1 2 3", order)
	}
	if len(accs) != 3 {
		t.Fatalf("got %d accumulators, want 3", len(accs))
	}
	if x := accs["x"]; x.N() != 4 || x.Mean() != 1.5 || x.Min() != 0 || x.Max() != 3 {
		t.Errorf("x = %v, want n=4 mean=1.5 in [0,3]", x)
	}
	if y := accs["y"]; y.N() != 4 || y.Mean() != 10 || y.CI95() != 0 {
		t.Errorf("y = %v, want four observations of 10", y)
	}
	if r := accs["rare"]; r.N() != 1 || r.Mean() != 7 {
		t.Errorf("rare = %v, want one observation of 7", r)
	}
	if got := Accumulate(0, func(int) Metrics { panic("called") }); len(got) != 0 {
		t.Errorf("zero repetitions gave %v", got)
	}
}

// Runner.run on the committed reference grid must render the committed
// cells.jsonl byte for byte: the seed derivation, the repetition loop and
// the record encoding all sit on this path (CI's regression gate checks
// the same bytes through the gossipsim binary).
func TestRunnerMatchesReferenceRun(t *testing.T) {
	want, err := os.ReadFile("../../testdata/reference-run/cells.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Algos:     []string{"pushpull", "sampled", "memory"},
		Models:    []string{"er"},
		Sizes:     []int{64, 128},
		Densities: []float64{1, 2},
		Reps:      2,
		Seed:      1,
	}
	for _, workers := range []int{1, 4} {
		var b strings.Builder
		if err := WriteJSONL(&b, (&Runner{Workers: workers}).RunGrid(g)); err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Errorf("workers=%d: run differs from testdata/reference-run/cells.jsonl:\n%s", workers, b.String())
		}
	}
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := sweepJSONL(t, 1)
	parallel := sweepJSONL(t, 8)
	if serial != parallel {
		t.Fatalf("results depend on worker count:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", serial, parallel)
	}
	if n := strings.Count(serial, "\n"); n != 12 {
		t.Fatalf("JSONL has %d lines, want 12", n)
	}
	for _, want := range []string{`"algo":"pushpull"`, `"metrics"`, `"msgs_per_node"`, `"ratio"`} {
		if !strings.Contains(serial, want) {
			t.Errorf("JSONL missing %s", want)
		}
	}
}

// Every table entry, on every model, emits exactly the accounting keys —
// or, for an entry that reads the failures knob and is given failures,
// exactly the robustness keys.
func TestExecuteAlgosAndModels(t *testing.T) {
	keys := func(s Scenario) string {
		return strings.Join(slices.Sorted(maps.Keys(Execute(s, 0, CellSeed(1, 0, 0)))), ",")
	}
	for _, a := range algoTable {
		for _, model := range Models() {
			s := Scenario{Algo: a.name, Model: model, N: 64, Reps: 1}
			if got, want := keys(s), "completed,msgs_per_node,steps"; got != want {
				t.Errorf("%s/%s emits %s, want %s", a.name, model, got, want)
			}
		}
		if a.knobs&knobFailures == 0 {
			continue
		}
		s := Scenario{Algo: a.name, Model: "er", N: 256, Failures: 10}
		if got, want := keys(s), "failed,lost_additional,ratio"; got != want {
			t.Errorf("%s with failures emits %s, want %s", a.name, got, want)
		}
	}
}

// TestBuildGraphRegularExactDegree: a `regular` cell is the configuration
// model at the sweep's degree, log²n·density rounded, clamped to [3, n-1]
// and bumped when n·d is odd, and every node has exactly that degree, a
// loop counting 2. The n = 2048 rows are density_models' points.
func TestBuildGraphRegularExactDegree(t *testing.T) {
	for _, tc := range []struct {
		n       int
		density float64
		d       int
	}{
		{2048, 0.25, 30}, {2048, 1, 121}, {2048, 2, 242},
		{64, 1, 36}, {128, 1, 49},
		{27, 1, 24},   // 22.6 rounds to 23, odd with n = 27
		{64, 0.01, 3}, // clamped up
		{5, 1, 4},     // clamped down to n-1
	} {
		g, err := BuildGraph(Scenario{Model: "regular", N: tc.n, Density: tc.density}, CellSeed(1, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d density %g: %v", tc.n, tc.density, err)
		}
		for v := int32(0); int(v) < g.N(); v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("n=%d density %g: node %d has degree %d, want %d", tc.n, tc.density, v, g.Degree(v), tc.d)
			}
		}
	}
}

// TestBuildGraphCompleteIsImplicit holds a `complete` cell at n = 65 536,
// whose stored CSR would be 17 GB, to the implicit K_n's ring and change.
func TestBuildGraphCompleteIsImplicit(t *testing.T) {
	const n = 1 << 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := BuildGraph(Scenario{Model: "complete", N: n}, CellSeed(1, 0, 0))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("BuildGraph(complete, n=%d) allocated %d B, ceiling 1 MiB", n, alloc)
	}
	if g.M() != n*(n-1)/2 || g.Degree(n-1) != n-1 || g.Validate() != nil {
		t.Fatalf("K_%d: m = %d, degree %d, Validate %v", n, g.M(), g.Degree(n-1), g.Validate())
	}
}

// TestExecuteReleaseMatchesFreshGraphs runs er and regular cells on two
// workers, each releasing its graphs for whichever build comes next, and
// requires the records of an ExecFunc that never releases. It is small
// enough for CI's race run, which checks the hand-off of the storage.
func TestExecuteReleaseMatchesFreshGraphs(t *testing.T) {
	g := Grid{
		Algos:     []string{"sampled", "broadcast-push", "memory"},
		Models:    []string{"er", "regular"},
		Sizes:     []int{256, 512},
		Densities: []float64{0.5, 2},
		Reps:      2,
		Seed:      3,
	}
	fresh := func(s Scenario, _ int, seed uint64) Metrics {
		gr, err := BuildGraph(s, xrand.SeedFor(seed, tagGraph))
		if err != nil {
			panic(err)
		}
		a, _ := lookupAlgo(s.Algo)
		return a.run(gr, s, xrand.SeedFor(seed, tagRun))
	}
	var got, want strings.Builder
	if err := WriteJSONL(&got, (&Runner{Workers: 2}).RunGrid(g)); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&want, (&Runner{Workers: 2, Exec: fresh}).RunGrid(g)); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("records with released graphs differ from fresh builds:\n%s\nwant\n%s", got.String(), want.String())
	}
}

// TestExecuteReleasedTrackersMatchOneWorker runs exact pushpull and fast
// cells of mixed sizes on two workers, each cell releasing its tracker for
// whichever cell comes next, and requires the records of a one-worker
// run. It is small enough for CI's race run, which checks the spare list
// under concurrent NewFull and Release.
func TestExecuteReleasedTrackersMatchOneWorker(t *testing.T) {
	g := Grid{
		Algos:     []string{"pushpull", "fast"},
		Models:    []string{"er"},
		Sizes:     []int{256, 128, 512},
		Densities: []float64{1, 2},
		Reps:      2,
		Seed:      5,
	}
	var got, want strings.Builder
	if err := WriteJSONL(&got, (&Runner{Workers: 2}).RunGrid(g)); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&want, (&Runner{Workers: 1}).RunGrid(g)); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("records on two workers differ from one worker's:\n%s\nwant\n%s", got.String(), want.String())
	}
}

func TestTableRender(t *testing.T) {
	g := Grid{Algos: []string{"pushpull"}, Sizes: []int{128}, Reps: 2, Seed: 1}
	results := (&Runner{}).RunGrid(g)
	tab := RecordTable("sweep", Records(results))
	var b strings.Builder
	tab.Render(&b)
	out := b.String()
	for _, want := range []string{"algo", "msgs_per_node", "pushpull", "128"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q in:\n%s", want, out)
		}
	}
}

func TestRunStampsIndexAndSeedsByPosition(t *testing.T) {
	// Hand-built scenario lists (zero Index) must still get one distinct
	// seed stream per cell: Run seeds by slice position and stamps it.
	scenarios := []Scenario{
		{Algo: "pushpull", Model: "er", N: 128, Reps: 2},
		{Algo: "pushpull", Model: "er", N: 128, Reps: 2},
	}
	var seeds []uint64
	r := &Runner{Seed: 3, Exec: func(s Scenario, rep int, seed uint64) Metrics {
		seeds = append(seeds, seed)
		return Metrics{"x": float64(s.Index)}
	}, Workers: 1}
	results := r.Run(scenarios)
	if results[0].Scenario.Index != 0 || results[1].Scenario.Index != 1 {
		t.Fatalf("indices not stamped: %d, %d", results[0].Scenario.Index, results[1].Scenario.Index)
	}
	seen := map[uint64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatal("identical cells received identical seeds")
		}
		seen[s] = true
	}
}

func TestCellSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for cell := 0; cell < 50; cell++ {
		for rep := 0; rep < 10; rep++ {
			s := CellSeed(7, cell, rep)
			if seen[s] {
				t.Fatalf("seed collision at cell=%d rep=%d", cell, rep)
			}
			seen[s] = true
		}
	}
}

// TestSeedSensitivity: a cell's seed reaches every stream it feeds. Each
// random graph model builds different graphs from two seeds, and each
// algorithm's metrics on one fixed graph, with and without failures, move
// with the run seed. A stream seeded from a constant would repeat itself
// at every seed; a clock-derived seed already fails
// TestRunnerMatchesReferenceRun.
func TestSeedSensitivity(t *testing.T) {
	for _, model := range Models() {
		if model == "complete" {
			continue // K_n draws nothing
		}
		s := Scenario{Model: model, N: 64}
		a, errA := BuildGraph(s, 1)
		b, errB := BuildGraph(s, 2)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 build the same graph", model)
		}
	}
	g, err := BuildGraph(Scenario{Model: "er", N: 300}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range algoTable {
		for _, failures := range []int{0, 60} {
			if failures > 0 && a.knobs&knobFailures == 0 {
				continue
			}
			s := Scenario{Algo: a.name, Model: "er", N: 300, Failures: failures}
			first, same := a.run(g, s, 1), true
			for seed := uint64(2); seed <= 8 && same; seed++ {
				same = reflect.DeepEqual(a.run(g, s, seed), first)
			}
			if same {
				t.Errorf("%s with %d failures: run seeds 1 to 8 all give %v", a.name, failures, first)
			}
		}
	}
}
