package runner

import (
	"strconv"
	"testing"
)

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

// TestFailureSpecStringHasNoFloatNoise: every percentage 0.01 %–100 % in
// steps of 0.01 prints as it was written (0.23% once printed as
// 0.22999999999999998%, and so did 1 006 others).
func TestFailureSpecStringHasNoFloatNoise(t *testing.T) {
	for i := 1; i <= 10000; i++ {
		in := strconv.FormatFloat(float64(i)/100, 'f', -1, 64) + "%"
		f, err := ParseFailureSpec(in)
		if err != nil {
			t.Fatal(err)
		}
		if f.String() != in {
			t.Fatalf("ParseFailureSpec(%q).String() = %q", in, f.String())
		}
	}
}

// FuzzParseFailureSpec: parsing never panics, and an accepted spec's
// String parses back to a spec with the same String that resolves alike
// at every n the property checks.
func FuzzParseFailureSpec(f *testing.F) {
	for _, s := range []string{"0", "5000", "0%", "0.23%", "2.5%", "100%", " 7% ", "1e-5%", "-1", "101%", "NaN%", "%", "0x1p-3%"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFailureSpec(s)
		if err != nil {
			return
		}
		back, err := ParseFailureSpec(spec.String())
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse: %v", s, spec.String(), err)
		}
		if back.String() != spec.String() {
			t.Fatalf("%q printed as %q, which prints as %q", s, spec.String(), back.String())
		}
		for _, n := range []int{1, 7, 300, 1 << 16} {
			if back.Resolve(n) != spec.Resolve(n) {
				t.Fatalf("%q resolves to %d at n=%d, its String %q to %d", s, spec.Resolve(n), n, spec.String(), back.Resolve(n))
			}
		}
	})
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
