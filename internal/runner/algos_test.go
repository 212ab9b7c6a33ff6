package runner

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// knobGrid sets every knob axis to two values over every algorithm.
var knobGrid = Grid{
	Algos: Algos(), Models: []string{"er", "regular"}, Sizes: []int{64, 128},
	Densities: []float64{1, 2}, Failures: []FailureSpec{{}, {Frac: 0.05}},
	Trees: []int{1, 3}, MemSlots: []int{2, 4}, WalkProbs: []float64{0.1, 0.5},
	SampleK: 32, Reps: 2, Seed: 7,
}

// TestAlgoTableCollapse pins the per-algorithm expansion of knobGrid:
// each algorithm multiplies over exactly the axes its table entry
// declares, and the expanded scenario list is byte-for-byte the one the
// AlgoUses* predicates produced before the table existed (the sha256
// was recorded from that code).
func TestAlgoTableCollapse(t *testing.T) {
	const base = 2 * 2 * 2 // models × sizes × densities
	want := map[string]int{
		"pushpull": base, "sampled": base,
		"fast": base * 2, "fast-theory": base * 2,
		"memory":         base * 2 * 2 * 2,
		"broadcast-push": base, "broadcast-pull": base, "broadcast-pushpull": base,
	}
	cells := knobGrid.Scenarios()
	got := map[string]int{}
	for _, c := range cells {
		got[c.Algo]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cells per algorithm = %v, want %v", got, want)
	}
	if len(want) != len(algoTable) {
		t.Errorf("table has %d entries, the pinned counts cover %d", len(algoTable), len(want))
	}
	b, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	const wantSum = "99b6b95d1159b4503e4f9f58362f9bac95c0218c5fd3e05f58e9cd5f164a3b6e"
	if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != wantSum {
		t.Errorf("Scenarios() JSON sha256 = %s, want %s", sum, wantSum)
	}
}

func TestValidateNamesTheTable(t *testing.T) {
	err := Grid{Algos: []string{"pushpull", "gossip9000"}}.Validate()
	if err == nil || !strings.Contains(err.Error(), `"gossip9000"`) || !strings.Contains(err.Error(), fmt.Sprint(Algos())) {
		t.Errorf("unknown algorithm: got %v, want an error naming it and listing %v", err, Algos())
	}
}
