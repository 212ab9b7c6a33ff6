package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccBasics(t *testing.T) {
	var a Acc
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	if a.N() != 5 {
		t.Errorf("N = %d", a.N())
	}
	if !almost(a.Mean(), 3, 1e-12) {
		t.Errorf("Mean = %v", a.Mean())
	}
	if !almost(a.Variance(), 2.5, 1e-12) {
		t.Errorf("Variance = %v", a.Variance())
	}
	if a.Min() != 1 || a.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccEmpty(t *testing.T) {
	var a Acc
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Error("empty Acc should report zeros")
	}
}

func TestAccSingle(t *testing.T) {
	var a Acc
	a.Add(7)
	if a.Variance() != 0 {
		t.Errorf("single-observation variance = %v", a.Variance())
	}
	if a.Min() != 7 || a.Max() != 7 {
		t.Error("single-observation min/max wrong")
	}
}

func TestMeanStd(t *testing.T) {
	var a, empty Acc
	a.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(a.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v", a.Mean())
	}
	// Unbiased std of this classic sample is sqrt(32/7).
	if !almost(a.StdDev(), math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", a.StdDev())
	}
	if empty.Mean() != 0 {
		t.Error("empty Mean != 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 || !almost(s.P50, 50, 1e-9) {
		t.Errorf("Summary = %+v", s)
	}
	if !almost(s.P25, 25, 1e-9) || !almost(s.P95, 95, 1e-9) {
		t.Errorf("Summary quantiles = %+v", s)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1} {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var small, big Acc
	for i := 0; i < 10; i++ {
		small.Add(r.NormFloat64())
	}
	for i := 0; i < 1000; i++ {
		big.Add(r.NormFloat64())
	}
	if big.CI95() >= small.CI95() {
		t.Errorf("CI95 did not shrink: %v vs %v", big.CI95(), small.CI95())
	}
}

func TestAccString(t *testing.T) {
	var a Acc
	a.Add(1)
	a.Add(2)
	if s := a.String(); s == "" {
		t.Error("empty String")
	}
}
