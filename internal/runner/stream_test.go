package runner

import (
	"strings"
	"sync"
	"testing"

	"gossip/internal/stats"
)

// fakeResult builds a one-metric result for stream tests.
func fakeResult(index int, v float64) CellResult {
	var a stats.Acc
	a.Add(v)
	return CellResult{
		Scenario: Scenario{Index: index, Algo: "pushpull", Model: "er", N: 64, Reps: 1},
		Metrics:  map[string]*stats.Acc{"steps": &a},
	}
}

func TestOrderedJSONLReordersCompletionOrder(t *testing.T) {
	var b strings.Builder
	o := NewOrderedJSONL(&b, 0)
	// Completion order 2, 0, 3, 1: nothing may appear until its prefix
	// is contiguous.
	o.Add(fakeResult(2, 2))
	if b.Len() != 0 {
		t.Fatalf("out-of-order cell written early: %q", b.String())
	}
	o.Add(fakeResult(0, 0))
	if got := strings.Count(b.String(), "\n"); got != 1 {
		t.Fatalf("after cells {2,0}: %d lines, want 1", got)
	}
	o.Add(fakeResult(3, 3))
	o.Add(fakeResult(1, 1))
	if got := strings.Count(b.String(), "\n"); got != 4 {
		t.Fatalf("after all cells: %d lines, want 4", got)
	}
	if o.Err() != nil {
		t.Fatalf("final state: err=%v", o.Err())
	}
	// The stream equals the batch writer's output for the same cells.
	var want strings.Builder
	results := []CellResult{fakeResult(0, 0), fakeResult(1, 1), fakeResult(2, 2), fakeResult(3, 3)}
	if err := WriteJSONL(&want, results); err != nil {
		t.Fatal(err)
	}
	if b.String() != want.String() {
		t.Errorf("stream differs from batch:\n%s\nvs\n%s", b.String(), want.String())
	}
}

func TestOrderedJSONLIgnoresSkippedPrefix(t *testing.T) {
	var b strings.Builder
	o := NewOrderedJSONL(&b, 2)
	o.Add(fakeResult(0, 0)) // already on disk in a resumed run
	o.Add(fakeResult(2, 2))
	o.Add(fakeResult(3, 3))
	if got := strings.Count(b.String(), "\n"); got != 2 {
		t.Fatalf("resumed stream has %d lines, want 2", got)
	}
	if !strings.Contains(b.String(), `"index":2`) || strings.Contains(b.String(), `"index":0`) {
		t.Errorf("resumed stream wrong:\n%s", b.String())
	}
}

// failAfter errors every write past a byte budget.
type failAfter struct {
	left, writes int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.writes++; f.left <= 0 {
		return 0, &writeErr{}
	}
	f.left -= len(p)
	return len(p), nil
}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestOrderedJSONLHoldsWriteError(t *testing.T) {
	w := &failAfter{left: 1}
	o := NewOrderedJSONL(w, 0)
	o.Add(fakeResult(0, 0))
	o.Add(fakeResult(1, 1))
	if o.Err() == nil {
		t.Fatal("write error lost")
	}
	// The stream stays quiet after the error instead of interleaving
	// later cells past a hole.
	writes := w.writes
	o.Add(fakeResult(3, 3))
	o.Add(fakeResult(2, 2))
	if w.writes != writes {
		t.Errorf("%d writes after the error", w.writes-writes)
	}
}

func TestRunnerOnCellStreamsEveryCell(t *testing.T) {
	g := Grid{Sizes: []int{64, 128}, Densities: []float64{1, 2}, Reps: 1, Seed: 5}
	var (
		mu   sync.Mutex
		seen []int
	)
	r := &Runner{
		Workers: 4,
		OnCell: func(c CellResult) {
			mu.Lock()
			defer mu.Unlock()
			if c.Metrics == nil {
				t.Error("OnCell got a skipped cell")
			}
			seen = append(seen, c.Scenario.Index)
		},
	}
	results := r.RunGrid(g)
	if len(seen) != len(results) {
		t.Fatalf("OnCell saw %d cells, want %d", len(seen), len(results))
	}
	got := map[int]bool{}
	for _, i := range seen {
		got[i] = true
	}
	for i := range results {
		if !got[i] {
			t.Errorf("cell %d never reported", i)
		}
	}
}

func TestRunnerSkipLeavesResultsIdentical(t *testing.T) {
	g := Grid{Sizes: []int{64, 128}, Densities: []float64{1, 2}, Reps: 2, Seed: 6}
	full := (&Runner{Workers: 2}).RunGrid(g)
	skipped := (&Runner{
		Workers: 2,
		Skip:    func(s Scenario) bool { return s.Index < 2 },
	}).RunGrid(g)
	if len(full) != len(skipped) {
		t.Fatal("length mismatch")
	}
	for i := range skipped {
		if i < 2 {
			if skipped[i].Metrics != nil {
				t.Errorf("skipped cell %d has metrics", i)
			}
			continue
		}
		var a, b strings.Builder
		if err := WriteJSONL(&a, full[i:i+1]); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&b, skipped[i:i+1]); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("cell %d differs after prefix skip:\n%s\nvs\n%s", i, a.String(), b.String())
		}
	}
}

func TestKnobAxesExpandAndCollapse(t *testing.T) {
	g := Grid{
		Algos:     []string{"memory", "fast", "pushpull"},
		Sizes:     []int{128},
		Trees:     []int{1, 3},
		MemSlots:  []int{2, 4},
		WalkProbs: []float64{0.25, 0.5},
	}
	cells := g.Scenarios()
	// memory: trees × memslots (walkprob collapses) = 4; fast:
	// walkprobs = 2; pushpull: everything collapses = 1.
	if want := 4 + 2 + 1; len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		switch c.Algo {
		case "memory":
			if c.Trees == 0 || c.MemSlots == 0 || c.WalkProb != 0 {
				t.Errorf("memory cell knobs wrong: %+v", c)
			}
		case "fast":
			if c.Trees != 0 || c.MemSlots != 0 || c.WalkProb == 0 {
				t.Errorf("fast cell knobs wrong: %+v", c)
			}
		default:
			if c.Trees != 0 || c.MemSlots != 0 || c.WalkProb != 0 {
				t.Errorf("%s cell leaked knobs: %+v", c.Algo, c)
			}
		}
	}
	// SampleK reaches only sampled cells.
	g = Grid{Algos: []string{"sampled", "pushpull"}, Sizes: []int{128}, SampleK: 16}
	cells = g.Scenarios()
	if cells[0].SampleK != 16 || cells[1].SampleK != 0 {
		t.Errorf("SampleK routing wrong: %+v", cells)
	}
}

func TestGridCanonical(t *testing.T) {
	c := Grid{Seed: 9}.Canonical()
	if len(c.Algos) != 1 || len(c.Models) != 1 || len(c.Sizes) != 1 ||
		len(c.Densities) != 1 || len(c.Failures) != 1 || len(c.Trees) != 1 ||
		len(c.MemSlots) != 1 || len(c.WalkProbs) != 1 || c.Reps != 1 || c.Seed != 9 {
		t.Errorf("canonical form incomplete: %+v", c)
	}
	// Canonicalization preserves the expansion (same cells, same order).
	g := Grid{Algos: []string{"memory"}, Sizes: []int{64, 128}, Trees: []int{1, 2}, Reps: 2, Seed: 9}
	a, b := g.Scenarios(), g.Canonical().Scenarios()
	if len(a) != len(b) {
		t.Fatalf("canonicalization changed cell count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cell %d changed: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A canonical grid still validates.
	if err := g.Canonical().Validate(); err != nil {
		t.Errorf("canonical grid invalid: %v", err)
	}
}

func TestExecuteKnobOverrides(t *testing.T) {
	// sampled honors SampleK and defaults it.
	m := Execute(Scenario{Algo: "sampled", Model: "er", N: 256, SampleK: 8}, 0, CellSeed(2, 0, 0))
	if _, ok := m["msgs_per_node"]; !ok {
		t.Fatalf("sampled metrics missing: %v", m)
	}
	// An explicit walk probability changes the fast-gossip run.
	base := Execute(Scenario{Algo: "fast", Model: "er", N: 256}, 0, CellSeed(3, 0, 0))
	hot := Execute(Scenario{Algo: "fast", Model: "er", N: 256, WalkProb: 1}, 0, CellSeed(3, 0, 0))
	if base["msgs_per_node"] == hot["msgs_per_node"] {
		t.Error("walkprob=1 did not change fast-gossip accounting")
	}
	// Memory knobs reach the robustness experiment: trees=1 under
	// failures (vs the default 3) changes the loss accounting.
	one := Execute(Scenario{Algo: "memory", Model: "er", N: 256, Failures: 25, Trees: 1}, 0, CellSeed(4, 0, 0))
	three := Execute(Scenario{Algo: "memory", Model: "er", N: 256, Failures: 25}, 0, CellSeed(4, 0, 0))
	if _, ok := one["ratio"]; !ok {
		t.Fatalf("robustness metrics missing: %v", one)
	}
	if one["lost_additional"] < three["lost_additional"] {
		t.Errorf("1 tree lost fewer messages (%g) than 3 trees (%g)", one["lost_additional"], three["lost_additional"])
	}
}

func TestRecordTableKnobColumns(t *testing.T) {
	results := (&Runner{Workers: 1}).RunGrid(Grid{
		Algos: []string{"memory"}, Sizes: []int{64}, MemSlots: []int{2, 4}, Seed: 8,
	})
	var b strings.Builder
	Table("knobs", results).Render(&b)
	if !strings.Contains(b.String(), "memslots") {
		t.Errorf("knob column missing:\n%s", b.String())
	}
	// Grids without knobs render the five classic dimension columns.
	var plain strings.Builder
	Table("plain", (&Runner{Workers: 1}).RunGrid(Grid{Sizes: []int{64}, Seed: 8})).Render(&plain)
	if strings.Contains(plain.String(), "memslots") || strings.Contains(plain.String(), "walkprob") {
		t.Errorf("knob columns leaked into plain table:\n%s", plain.String())
	}
}
