package runner

import (
	"strings"
	"testing"
)

func TestParseCellRange(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CellRange
	}{
		{"", CellRange{}},
		{"0/3", CellRange{Shard: 0, Of: 3}},
		{"2/3", CellRange{Shard: 2, Of: 3}},
		{" 1/2 ", CellRange{Shard: 1, Of: 2}},
		{"0/1", CellRange{Shard: 0, Of: 1}},
		{"4..9", CellRange{Lo: 4, Hi: 9}},
		{"0..1", CellRange{Lo: 0, Hi: 1}},
	} {
		got, err := ParseCellRange(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseCellRange(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	// "Filter disabled" sentinels (m or hi < 1) must never come out of
	// typed input: "0/0" silently meaning "all cells" would run a whole
	// grid on a machine meant to run a slice.
	for _, bad := range []string{"x", "1", "3/3", "-1/3", "1/x", "x/2", "0/0", "1/0", "0/-2",
		"5..5", "9..4", "-2..4", "a..b", "0..0", "5..0"} {
		if _, err := ParseCellRange(bad); err == nil {
			t.Errorf("ParseCellRange(%q) accepted", bad)
		}
	}
	// The API-level equivalent: a lower bound without an upper bound
	// would be silently ignored by Contains.
	if err := (CellRange{Lo: 5}).Validate(); err == nil {
		t.Error("Validate accepted Lo without Hi")
	}
}

func TestCellRangeSelection(t *testing.T) {
	if !(CellRange{}).IsAll() || (CellRange{Of: 2}).IsAll() || (CellRange{Hi: 3}).IsAll() {
		t.Fatal("IsAll wrong")
	}
	// Modular shards of any m partition the index space.
	n := 17
	seen := make([]int, n)
	for s := 0; s < 3; s++ {
		for _, i := range (CellRange{Shard: s, Of: 3}).Indices(n) {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("cell %d covered %d times by shards of 3", i, c)
		}
	}
	// Ranges select half-open slices; a conjunction intersects.
	r := CellRange{Lo: 4, Hi: 9}
	if got := r.Indices(n); len(got) != 5 || got[0] != 4 || got[4] != 8 {
		t.Fatalf("range indices = %v", got)
	}
	both := CellRange{Shard: 0, Of: 2, Lo: 4, Hi: 9}
	if got := both.Indices(n); len(got) != 3 || got[0] != 4 || got[2] != 8 {
		t.Fatalf("conjunction indices = %v", got)
	}
	if s := both.String(); !strings.Contains(s, "0/2") || !strings.Contains(s, "4..9") {
		t.Errorf("conjunction String() = %q", s)
	}
	if (CellRange{}).String() != "all" {
		t.Errorf("all String() = %q", CellRange{}.String())
	}
}

// TestRunGridShardMatchesFullRun is the sharding core property: every
// shard's cells serialize bit-identically to the same cells of the
// unsharded run, at any worker count, for modular and range shards.
func TestRunGridShardMatchesFullRun(t *testing.T) {
	g := Grid{
		Algos:     []string{"pushpull", "memory"},
		Sizes:     []int{64, 128},
		Densities: []float64{1, 2},
		Failures:  []FailureSpec{{}, {Count: 5}},
		Reps:      2,
		Seed:      13,
	}
	full := (&Runner{Workers: 4}).RunGrid(g)
	byIndex := map[int]string{}
	for _, c := range full {
		var b strings.Builder
		if err := WriteJSONL(&b, []CellResult{c}); err != nil {
			t.Fatal(err)
		}
		byIndex[c.Scenario.Index] = b.String()
	}

	ranges := []CellRange{
		{Shard: 0, Of: 3}, {Shard: 1, Of: 3}, {Shard: 2, Of: 3},
		{Lo: 0, Hi: 2}, {Lo: 2, Hi: len(full)},
	}
	for _, cr := range ranges {
		for _, workers := range []int{1, 3} {
			got := (&Runner{Workers: workers}).RunGridShard(g, cr)
			want := cr.Indices(len(full))
			if len(got) != len(want) {
				t.Fatalf("shard %s: %d cells, want %d", cr, len(got), len(want))
			}
			for p, c := range got {
				if c.Scenario.Index != want[p] {
					t.Fatalf("shard %s position %d holds cell %d, want %d", cr, p, c.Scenario.Index, want[p])
				}
				var b strings.Builder
				if err := WriteJSONL(&b, []CellResult{c}); err != nil {
					t.Fatal(err)
				}
				if b.String() != byIndex[c.Scenario.Index] {
					t.Errorf("shard %s (workers %d) cell %d differs from full run", cr, workers, c.Scenario.Index)
				}
			}
		}
	}
}

// TestOrderedCellsSeq: a sequence-following stream emits the shard's
// owned cells in order, buffers gaps, ignores unowned cells and an
// already-done prefix.
func TestOrderedCellsSeq(t *testing.T) {
	var got []int
	o := NewOrderedCells([]int{1, 4, 7, 10}, 0, func(r CellRecord) error {
		got = append(got, r.Index)
		return nil
	})
	o.Add(fakeResult(7, 7)) // buffers: 1 and 4 outstanding
	o.Add(fakeResult(2, 2)) // not owned: ignored
	o.Add(fakeResult(1, 1)) // emits 1
	if len(got) != 1 || got[0] != 1 || o.Pending() != 1 {
		t.Fatalf("after {7,2,1}: got %v pending %d", got, o.Pending())
	}
	o.Add(fakeResult(4, 4)) // emits 4, then the buffered 7
	o.Add(fakeResult(10, 10))
	if len(got) != 4 || got[3] != 10 || o.Pending() != 0 || o.Err() != nil {
		t.Fatalf("final: got %v pending %d err %v", got, o.Pending(), o.Err())
	}

	// A resumed shard: the first done cells are already on disk.
	got = nil
	o = NewOrderedCells([]int{1, 4, 7}, 2, func(r CellRecord) error {
		got = append(got, r.Index)
		return nil
	})
	o.Add(fakeResult(1, 1)) // done prefix: ignored
	o.Add(fakeResult(4, 4)) // done prefix: ignored
	o.Add(fakeResult(7, 7))
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("resumed shard stream got %v, want [7]", got)
	}
}

// TestScenariosPreallocation: the capacity hint accounts for every
// axis (trees/memslots/walkprob included) and their per-algorithm
// collapse, so knob-heavy grids expand without reallocating.
func TestScenariosPreallocation(t *testing.T) {
	for _, g := range []Grid{
		{Sizes: []int{64}},
		{
			Algos:     []string{"memory", "fast", "pushpull"},
			Models:    []string{"er", "regular"},
			Sizes:     []int{64, 128},
			Densities: []float64{1, 2},
			Failures:  []FailureSpec{{}, {Count: 3}},
			Trees:     []int{1, 3},
			MemSlots:  []int{2, 4},
			WalkProbs: []float64{0.25, 0.5},
		},
		{Algos: []string{"memory"}, Sizes: []int{64}, Trees: []int{1, 2, 3}},
		{Algos: []string{"fast"}, Sizes: []int{64}, WalkProbs: []float64{0.1, 0.9}},
	} {
		s := g.Scenarios()
		if len(s) != cap(s) {
			t.Errorf("grid %+v: len %d != cap %d", g, len(s), cap(s))
		}
	}
}

// TestFailureSpecResolveRounding: Frac·n rounds to nearest — awkward
// fractions whose float product lands an ulp below the true value must
// not lose a node to truncation.
func TestFailureSpecResolveRounding(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		n    int
		want int
	}{
		{0.29, 100, 29}, // 0.29*100 = 28.999999999999996 — truncation loses a node
		{0.1, 55, 6},    // 5.5 rounds up; truncation gives 5
		{0.07, 300, 21}, // 0.07*300 = 21.000000000000004 — stays 21 either way
		{0.001, 1000, 1},
		{0.025, 10000, 250},
		{0.015, 1000, 15},
	} {
		f := FailureSpec{Frac: tc.frac}
		if got := f.Resolve(tc.n); got != tc.want {
			t.Errorf("FailureSpec{Frac: %v}.Resolve(%d) = %d, want %d", tc.frac, tc.n, got, tc.want)
		}
	}
	// Absolute counts are untouched.
	if got := (FailureSpec{Count: 17}).Resolve(1000); got != 17 {
		t.Errorf("Count resolve = %d", got)
	}
}

// TestShardOf: the constructor matches the parsed form of "s/m".
func TestShardOf(t *testing.T) {
	got := ShardOf(1, 3)
	want, err := ParseCellRange("1/3")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("ShardOf(1, 3) = %+v, want %+v", got, want)
	}
	if !ShardOf(0, 1).IsAll() {
		t.Error("ShardOf(0, 1) does not select every cell")
	}
	if err := ShardOf(3, 3).Validate(); err == nil {
		t.Error("ShardOf(3, 3) validated")
	}
}
